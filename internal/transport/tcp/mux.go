package tcp

import (
	"net"
	"sync"
	"sync/atomic"
)

// defaultWindow is the per-server outstanding-request window: how many
// tagged frames one muxConn keeps in flight before issue blocks. It bounds
// what either end buffers and is the backpressure of the pipelined executor;
// 64 comfortably exceeds any single session's depth times its verb fan-out.
const defaultWindow = 64

// runners is one cluster's count of its client threads that are runnable
// and may still post (transport.Parker). Posting never syscalls: a thread
// about to block gives its count up, and the one that takes the count to
// zero writes every mux's posted frames, so a wave of threads woken by one
// burst of replies leaves in one write per server. The count is handed
// over, never guessed — whoever wakes a counted thread adds its count
// first: the reader delivering a slot its awaiter parked on, or core's
// executor and lock tables through Parker. Too low only writes early; too
// high strands frames, so each hand-over is matched by one give-up.
type runners struct {
	n     atomic.Int32
	muxes []*muxConn
}

// park is called by a thread about to block or to stop posting, held saying
// whether it holds a count. A thread without one (a lone caller, the raw
// client) is last when the count is already zero; otherwise it leaves its
// frames to the counted threads, the last of which writes them.
func (r *runners) park(held bool) {
	if held {
		if r.n.Add(-1) > 0 {
			return
		}
	} else if r.n.Load() > 0 {
		return
	}
	for _, mx := range r.muxes {
		mx.flush()
	}
}

// muxSlot is one tagged completion slot. Its tag is its index in the mux's
// slot table; a slot cycles free → inflight → delivered → free, and its
// resp buffer is reused across cycles so the steady path allocates nothing.
type muxSlot struct {
	// ready carries the single completion signal; err/reject/resp are valid
	// for the awaiter once it receives (channel delivery orders the writes).
	ready chan struct{}

	// inflight guards exactly-once delivery: whoever CASes true→false owns
	// the completion (the reader with a response, or the failure sweep).
	inflight atomic.Bool

	// hand is the count hand-off with a counted awaiter: handNone until it
	// parks (handWait — it gave its count up, so the deliverer counts it
	// again before waking it) or the slot completes first (handDone).
	hand atomic.Uint32

	err    bool   // connection died; apply dead-memory semantics
	reject bool   // server answered statusErr; resp holds the message
	resp   []byte // response payload, valid until release
}

const (
	handNone uint32 = iota
	handWait
	handDone
)

// muxConn is the multiplexed connection to one memory server, shared by
// every client thread of the cluster, and like an RDMA queue pair it has no
// goroutine of its own: the threads that use it do its I/O. Posting a frame
// (issue) takes a tagged slot from the bounded window and appends to the
// write buffer — never a syscall. A thread about to block parks (runners):
// the last runnable one writes every mux's posted frames with one Write each
// (flush). Whichever awaiting thread finds its slot incomplete while nobody
// is reading takes the reader token, reads the socket and demuxes responses
// by tag into the slots — its own and the other waiters' — and hands the
// token on once its own has arrived. A lone depth-1 caller thus pays one
// park per round trip (inside its own Read), and a wave of callers shares
// one write and one read per burst. The server answers a connection in
// posted order, but awaiters come in any order, so delivery stays by tag.
//
// Failure is terminal (a dead server stays dead, as in v1): fail closes the
// socket, the reader's next read errors, it sweeps every in-flight slot with
// err, and later issues self-complete with err. Verbs observing err declare
// the death through the deployment's fault injector (deploy.Faults.KillMS),
// which publishes it, runs failover and then the cluster's listener that
// calls fail — the mux itself never touches the cluster, keeping the
// KillMS→fail call acyclic.
type muxConn struct {
	ms  int
	c   net.Conn
	run *runners // the cluster's count; a mux dialed alone has one of its own

	slots []muxSlot
	free  chan uint32 // free slot indices; capacity = window

	wmu      sync.Mutex
	wbuf     []byte       // frames posted since the last flush took the buffer
	posted   atomic.Int32 // frames in wbuf; written under wmu, read without
	flushing atomic.Bool  // held by the one thread writing; guards spare
	spare    []byte       // the flusher's recycled swap buffer

	rtok chan struct{} // capacity 1; holds the reader token while nobody reads
	fr   frameReader   // the token holder's

	// Data-path counters: request frames sent, write and read syscalls made.
	frames, writes, reads atomic.Int64

	closed    atomic.Bool
	closeOnce sync.Once
}

// dialMux connects to endpoint. Nothing runs until a thread uses the mux.
func dialMux(ms int, endpoint string, window int) (*muxConn, error) {
	if window <= 0 {
		window = defaultWindow
	}
	c, err := net.DialTimeout("tcp", endpoint, dialTimeout)
	if err != nil {
		return nil, err
	}
	m := &muxConn{
		ms:    ms,
		c:     c,
		slots: make([]muxSlot, window),
		free:  make(chan uint32, window),
		rtok:  make(chan struct{}, 1),
	}
	m.run = &runners{muxes: []*muxConn{m}}
	m.fr = frameReader{src: c, reads: &m.reads}
	m.rtok <- struct{}{}
	for i := range m.slots {
		m.slots[i].ready = make(chan struct{}, 1)
		m.free <- uint32(i)
	}
	return m, nil
}

// fail makes the mux terminally dead: no new frames go out and the socket
// closes, kicking the reader out of any blocking read (a SIGSTOPped server
// holds its sockets open without answering). The in-flight sweep is the
// reader's — the current one when its read errors, else the next thread to
// await — so slot buffers are never written concurrently with delivery.
func (m *muxConn) fail() {
	m.closeOnce.Do(func() {
		m.closed.Store(true)
		m.c.Close()
	})
}

// issue acquires a slot from the window (blocking while the window is
// full — the backpressure), appends one frame to the write buffer and
// returns the slot's tag. The payload is copied, so the caller's scratch is
// reusable immediately; the frame leaves with the next flush. On a dead mux
// the slot self-completes with err.
func (m *muxConn) issue(op byte, payload []byte) uint32 {
	tag, ok := m.tryIssue(op, payload)
	if !ok {
		m.run.park(false) // about to block: slots free up only once their frames have left
		tag = <-m.free
		m.send(tag, op, payload)
	}
	return tag
}

// tryIssue is issue for a thread that already holds a slot of this window
// and so may not block for another: it gives up when none is free.
func (m *muxConn) tryIssue(op byte, payload []byte) (uint32, bool) {
	select {
	case tag := <-m.free:
		m.send(tag, op, payload)
		return tag, true
	default:
		return 0, false
	}
}

// send arms slot tag and appends its frame to the write buffer.
func (m *muxConn) send(tag uint32, op byte, payload []byte) {
	s := &m.slots[tag]
	s.err, s.reject = false, false
	s.hand.Store(handNone)
	s.inflight.Store(true)
	if m.closed.Load() {
		// The request never goes out. Complete it here: a reader's sweep may
		// already be done, but if it is running it CAS-races us safely.
		m.deliver(s, true)
		return
	}
	m.wmu.Lock()
	m.wbuf = appendFrame(m.wbuf, tag, op, payload)
	m.posted.Add(1)
	m.wmu.Unlock()
}

// flush puts every posted frame on the wire with one Write. A thread that
// finds another one writing leaves its frames to it: the writer re-checks
// after its Write, so nothing posted is ever left behind.
func (m *muxConn) flush() {
	for m.posted.Load() > 0 && m.flushing.CompareAndSwap(false, true) {
		m.wmu.Lock()
		out := m.wbuf
		m.wbuf = m.spare[:0]
		n := m.posted.Swap(0)
		m.wmu.Unlock()
		m.frames.Add(int64(n))
		m.writes.Add(1)
		_, err := m.c.Write(out)
		m.spare = out[:0]
		m.flushing.Store(false)
		if err != nil {
			m.fail() // the next read errors and its reader runs the failure sweep
			return
		}
	}
}

// await blocks until tag's response arrives. ok=false means the connection
// died; the caller applies dead-memory semantics and marks the server dead.
// The returned payload aliases the slot's buffer — parse or copy it before
// release. A statusErr response is a protocol bug (out-of-range access, bad
// opcode) and panics in the awaiting goroutine, matching the simulator's
// treatment of verb misuse. The awaiter holds no count (see awaitAs).
func (m *muxConn) await(tag uint32) ([]byte, bool) { return m.awaitAs(tag, false) }

// awaitAs is await for a thread whose count held says it holds (runners).
// A response already in costs no syscall and no park; otherwise the thread
// parks, and a counted one is counted again by whoever delivers its slot.
func (m *muxConn) awaitAs(tag uint32, held bool) ([]byte, bool) {
	s := &m.slots[tag]
	select {
	case <-s.ready:
	default:
		m.wait(s, held)
	}
	if s.err {
		return nil, false
	}
	if s.reject {
		panic("tcp: server rejected request: " + string(s.resp))
	}
	return s.resp, true
}

// wait parks until s completes, serving as the connection's reader whenever
// the token is free: handing it back wakes one parked waiter to take over. A
// counted thread registers on the slot before it gives its count up; if the
// slot completed in between, it never parks and keeps its count.
func (m *muxConn) wait(s *muxSlot, held bool) {
	if held && !s.hand.CompareAndSwap(handNone, handWait) {
		<-s.ready
		return
	}
	m.run.park(held)
	for {
		select {
		case <-s.ready:
			return
		case <-m.rtok:
			m.demux(s)
			m.rtok <- struct{}{}
		}
	}
}

// deliver completes slot s exactly once, counting its awaiter runnable
// first if it parked holding a count.
func (m *muxConn) deliver(s *muxSlot, err bool) {
	if s.inflight.CompareAndSwap(true, false) {
		s.err = err
		if s.hand.Swap(handDone) == handWait {
			m.run.n.Add(1)
		}
		s.ready <- struct{}{}
	}
}

// demux is the reader role, held by the awaiter of own: read frames and
// complete their slots until own is complete and no whole frame is left in
// the buffer (those cost no syscall, and their awaiters are parked). Each
// payload is copied into its slot's reusable buffer — the awaiter does not
// touch it before deliver — so the steady path allocates nothing once warm.
// A read error, or a response whose tag is out of range or not in flight
// (the stream is desynchronized), kills the connection and completes every
// in-flight slot with err.
func (m *muxConn) demux(own *muxSlot) {
	for own.inflight.Load() || m.fr.buffered() {
		tag, status, payload, err := m.fr.next()
		if err != nil || tag >= uint32(len(m.slots)) || !m.slots[tag].inflight.Load() {
			m.fail()
			m.fr.r, m.fr.w = 0, 0
			for i := range m.slots {
				m.deliver(&m.slots[i], true)
			}
			return
		}
		s := &m.slots[tag]
		s.resp = append(s.resp[:0], payload...)
		s.reject = status != statusOK
		m.deliver(s, false)
	}
}

// release returns tag's slot to the window. The slot's response buffer is
// invalid afterwards.
func (m *muxConn) release(tag uint32) { m.free <- tag }

// roundTrip is the synchronous convenience: issue, await, hand the response
// to parse (which must copy anything it keeps), release.
func (m *muxConn) roundTrip(op byte, payload []byte, parse func(resp []byte)) bool {
	tag := m.issue(op, payload)
	resp, ok := m.await(tag)
	if ok && parse != nil {
		parse(resp)
	}
	m.release(tag)
	return ok
}
