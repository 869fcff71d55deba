package tcp

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"sherman/internal/transport"
)

// muxDial connects a test mux to endpoint and registers its teardown.
func muxDial(t *testing.T, endpoint string, window int) *muxConn {
	t.Helper()
	m, err := dialMux(0, endpoint, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.fail)
	return m
}

// growOn grows one chunk on the mux's server and returns its base offset.
func growOn(t *testing.T, m *muxConn) uint64 {
	t.Helper()
	var base uint64
	if !m.roundTrip(opGrow, nil, func(resp []byte) { base = (&payloadReader{b: resp}).u64() }) {
		t.Fatal("grow round trip failed")
	}
	return base
}

// writeOn posts one write through the mux's WriteBatch opcode.
func writeOn(t *testing.T, m *muxConn, a transport.Addr, data []byte) {
	t.Helper()
	payload := appendU32(nil, 1)
	payload = appendU64(payload, uint64(a))
	payload = appendU32(payload, uint32(len(data)))
	payload = append(payload, data...)
	if !m.roundTrip(opWriteBatch, payload, nil) {
		t.Fatal("write round trip failed")
	}
}

func readPayload(a transport.Addr, n int) []byte {
	return appendU32(appendU64(nil, uint64(a)), uint32(n))
}

// TestMuxOutOfOrderDelivery posts a large read and a small read back to back
// on one multiplexed connection and awaits them in reverse issue order: the
// server answers in posted order, so the awaiter of the second reads the
// first's response off the socket first, and the tag demux must route each
// to its own slot.
func TestMuxOutOfOrderDelivery(t *testing.T) {
	endpoints := startServers(t, 1)
	m := muxDial(t, endpoints[0], 0)
	base := growOn(t, m)

	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	bigAddr := transport.MakeAddr(0, base)
	smallAddr := transport.MakeAddr(0, base+(1<<20))
	writeOn(t, m, bigAddr, big)
	writeOn(t, m, smallAddr, small)

	tagBig := m.issue(opRead, readPayload(bigAddr, len(big)))
	tagSmall := m.issue(opRead, readPayload(smallAddr, len(small)))
	if tagBig == tagSmall {
		t.Fatalf("issue reused tag %d while in flight", tagBig)
	}

	// Await the later-issued request first: arrival order is the server's
	// business, delivery order is the awaiter's.
	resp, ok := m.await(tagSmall)
	if !ok {
		t.Fatal("small read failed")
	}
	if string(resp) != string(small) {
		t.Fatalf("small read = %v, want %v", resp, small)
	}
	m.release(tagSmall)

	resp, ok = m.await(tagBig)
	if !ok {
		t.Fatal("big read failed")
	}
	if len(resp) != len(big) {
		t.Fatalf("big read %d bytes, want %d", len(resp), len(big))
	}
	for i := range resp {
		if resp[i] != big[i] {
			t.Fatalf("big read byte %d = %d, want %d", i, resp[i], big[i])
		}
	}
	m.release(tagBig)
}

// TestMuxConcurrentSenders hammers one mux from several goroutines, each
// verifying its own distinct pattern — the shared window, the combined
// flush and the reader role under real contention.
func TestMuxConcurrentSenders(t *testing.T) {
	endpoints := startServers(t, 1)
	m := muxDial(t, endpoints[0], 0)
	base := growOn(t, m)

	const workers = 8
	const rounds = 200
	for w := 0; w < workers; w++ {
		pat := make([]byte, 128)
		for i := range pat {
			pat[i] = byte(w*31 + i)
		}
		writeOn(t, m, transport.MakeAddr(0, base+uint64(w)*4096), pat)
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := transport.MakeAddr(0, base+uint64(w)*4096)
			for r := 0; r < rounds; r++ {
				tag := m.issue(opRead, readPayload(a, 128))
				resp, ok := m.await(tag)
				if !ok {
					errs <- "read failed"
					return
				}
				for i := range resp {
					if resp[i] != byte(w*31+i) {
						m.release(tag)
						errs <- "cross-delivered response payload"
						return
					}
				}
				m.release(tag)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// fakeServer accepts one connection and hands it to fn.
func fakeServer(t *testing.T, fn func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fn(c)
	}()
	return ln.Addr().String()
}

// startWaiters posts one ping per waiter from its own goroutine; each sends
// whether its await succeeded.
func startWaiters(m *muxConn, waiters int) <-chan bool {
	oks := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			tag := m.issue(opPing, nil)
			_, ok := m.await(tag)
			m.release(tag)
			oks <- ok
		}()
	}
	return oks
}

// collect waits for every waiter of startWaiters to return and counts the
// successes. Every waiter returning at all is the no-stranding half of the
// reader-role contract.
func collect(t *testing.T, oks <-chan bool, waiters int) (succeeded int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-oks:
			if ok {
				succeeded++
			}
		case <-timeout:
			t.Fatalf("%d of %d waiters stranded on the mux", waiters-i, waiters)
		}
	}
	return succeeded
}

// checkQuiescent verifies exactly-once completion after every waiter has
// returned: the whole window is back on the free list, no slot holds a
// second completion token, and the reader token is home.
func checkQuiescent(t *testing.T, m *muxConn) {
	t.Helper()
	if len(m.free) != cap(m.free) {
		t.Fatalf("%d of %d slots returned to the window", len(m.free), cap(m.free))
	}
	for i := range m.slots {
		if len(m.slots[i].ready) != 0 || m.slots[i].inflight.Load() {
			t.Fatalf("slot %d completed more or less than once", i)
		}
	}
	if len(m.rtok) != 1 {
		t.Fatal("the reader token was not handed back")
	}
}

// readFrames consumes n request frames and returns their tags.
func readFrames(c net.Conn, n int) ([]uint32, error) {
	r := bufio.NewReader(c)
	tags := make([]uint32, n)
	for i := range tags {
		tag, _, _, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		tags[i] = tag
	}
	return tags, nil
}

// TestMuxDesyncFailsEveryWaiterOnce pins the failure rule with a full window
// of waiters, one of them reading: a response whose tag is out of range, or
// a frame torn inside its header or payload, kills the connection; every
// pending request completes with the error path exactly once instead of
// hanging, and so does every later one.
func TestMuxDesyncFailsEveryWaiterOnce(t *testing.T) {
	const waiters = 4
	cases := []struct {
		name string
		fn   func(c net.Conn, tag uint32)
	}{
		{"bad tag", func(c net.Conn, tag uint32) {
			writeFrame(c, tag+1000, statusOK, nil) // way out of the slot table
			// Hold the conn open: only the bad tag, not EOF, must kill it.
			time.Sleep(5 * time.Second)
		}},
		{"torn header", func(c net.Conn, tag uint32) {
			c.Write([]byte{42, 0, 0}) // 3 of 9 header bytes
		}},
		{"torn payload", func(c net.Conn, tag uint32) {
			full := appendFrame(nil, tag, statusOK, make([]byte, 100))
			c.Write(full[:frameHeader+10]) // header promises 100, delivers 10
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := fakeServer(t, func(c net.Conn) {
				tags, err := readFrames(c, waiters)
				if err != nil {
					return
				}
				tc.fn(c, tags[0])
			})
			m := muxDial(t, ep, waiters)
			if n := collect(t, startWaiters(m, waiters), waiters); n != 0 {
				t.Fatalf("%d awaits succeeded on a desynchronized stream", n)
			}
			checkQuiescent(t, m)
			// The mux is terminally dead: a later issue self-completes with err.
			if n := collect(t, startWaiters(m, 1), 1); n != 0 {
				t.Fatal("await succeeded on a dead mux")
			}
			checkQuiescent(t, m)
		})
	}
}

// TestMuxReaderHandOff pins the reader role's hand-off. The leader — the
// awaiter holding the reader token — gets its own reply first while a second
// waiter's is still outstanding: it must stop reading, and the token must
// reach the second waiter, who reads its own reply itself.
func TestMuxReaderHandOff(t *testing.T) {
	bothWaiting, leaderBack := make(chan struct{}), make(chan struct{})
	ep := fakeServer(t, func(c net.Conn) {
		tags, err := readFrames(c, 2)
		if err != nil {
			return
		}
		<-bothWaiting
		writeFrame(c, tags[0], statusOK, []byte("first"))
		<-leaderBack
		writeFrame(c, tags[1], statusOK, []byte("second"))
		time.Sleep(5 * time.Second) // no EOF to rescue a stranded waiter
	})
	m := muxDial(t, ep, 0)

	lead := m.issue(opPing, nil)
	follow := m.issue(opPing, nil)
	followed := make(chan string, 1)
	go func() {
		// The leader: blocks in Read until "first" arrives, then returns.
		resp, ok := m.await(lead)
		if !ok || string(resp) != "first" {
			t.Errorf("leader got %q, ok=%v", resp, ok)
		}
		m.release(lead)
		close(leaderBack)
	}()
	for len(m.rtok) == 1 { // until the leader holds the token, parked in Read
		time.Sleep(time.Millisecond)
	}
	go func() {
		resp, ok := m.await(follow)
		got := string(resp)
		if !ok {
			got = "connection failed"
		}
		m.release(follow)
		followed <- got
	}()
	// Not needed for correctness — the token must reach the follower whenever
	// it starts waiting — but this makes the parked-follower case the usual one.
	time.Sleep(10 * time.Millisecond)
	close(bothWaiting)
	select {
	case got := <-followed:
		if got != "second" {
			t.Fatalf("follower got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower stranded: the reader token was not handed on")
	}
	checkQuiescent(t, m)
}

// TestMuxReaderRoleUnderContention runs 32 goroutines over a window of 4
// against a real server: slots, the flush and the reader token change hands
// constantly, every read must come back with its own bytes, and nobody may
// strand.
func TestMuxReaderRoleUnderContention(t *testing.T) {
	endpoints := startServers(t, 1)
	m := muxDial(t, endpoints[0], 4)
	base := growOn(t, m)

	const workers, rounds = 32, 100
	for w := 0; w < workers; w++ {
		writeOn(t, m, transport.MakeAddr(0, base+uint64(w)*64), bytes.Repeat([]byte{byte(w + 1)}, 64))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := transport.MakeAddr(0, base+uint64(w)*64)
			for r := 0; r < rounds; r++ {
				tag := m.issue(opRead, readPayload(a, 64))
				resp, ok := m.await(tag)
				good := ok && bytes.Equal(resp, bytes.Repeat([]byte{byte(w + 1)}, 64))
				m.release(tag)
				if !good {
					t.Errorf("worker %d round %d: ok=%v, payload %x", w, r, ok, resp)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers stranded on the mux")
	}
	checkQuiescent(t, m)
}

// TestMuxFailUnblocksParkedReader pins the heartbeat path: the membership
// service declares a silent server dead by calling fail from outside, which
// must kick the leader out of its blocking Read and fail every waiter.
func TestMuxFailUnblocksParkedReader(t *testing.T) {
	ep := fakeServer(t, func(c net.Conn) {
		time.Sleep(10 * time.Second) // a SIGSTOPped server: open socket, no answers
	})
	m := muxDial(t, ep, 0)
	oks := startWaiters(m, 3)
	for len(m.rtok) == 1 { // until one of them is parked in Read
		time.Sleep(time.Millisecond)
	}
	m.fail()
	if n := collect(t, oks, 3); n != 0 {
		t.Fatalf("%d awaits succeeded on a failed mux", n)
	}
	checkQuiescent(t, m)
}

// TestPostedMirrorLeavesBeforeBlocking pins the flush rule of the client
// thread: frames posted to one server leave no later than the thread's next
// blocking verb, on whatever server. A PostWritesAsync to server 1 followed
// by a blocking Read on server 0 must have server 1 apply the write without
// anyone calling Await — that is what lets replica mirrors overlap the
// primary's round trip.
func TestPostedMirrorLeavesBeforeBlocking(t *testing.T) {
	srvs := []*Server{startServer(t), startServer(t)}
	c, err := NewCluster([]string{srvs[0].Addr(), srvs[1].Addr()}, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tr := c.newTransport(0)
	a0 := transport.MakeAddr(0, tr.GrowChunk(0))
	a1 := transport.MakeAddr(1, tr.GrowChunk(1))

	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	pd := tr.PostWritesAsync(transport.WriteOp{Addr: a1, Data: want})
	if got := c.muxes[1].writes.Load(); got != 2 { // the ping and the grow
		t.Fatalf("posting made a write syscall (%d so far, want 2)", got)
	}
	tr.Read(a0, make([]byte, 8)) // blocks on server 0 only

	applied := func() bool {
		got := make([]byte, len(want))
		if err := srvs[1].Read(a1, got); err != nil { // under a1's line lock
			t.Fatal(err)
		}
		return bytes.Equal(got, want)
	}
	for deadline := time.Now().Add(5 * time.Second); !applied(); {
		if time.Now().After(deadline) {
			t.Fatal("server 1 never saw the posted write: it did not leave before the thread blocked")
		}
		time.Sleep(time.Millisecond)
	}
	tr.Await(pd)
}

// TestPingBypassesFullDataWindow pins the heartbeat liveness property: the
// membership service pings on its own lockstep connection, so a data window
// completely full of requests stalled on a busy chunk cannot head-of-line
// block failure detection. The test wedges a tiny window behind a held
// server stripe lock, then round-trips a ping on a separate connection with
// a deadline.
func TestPingBypassesFullDataWindow(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)

	m := muxDial(t, srv.Addr(), 2)
	base := growOn(t, m)
	addr := transport.MakeAddr(0, base)
	writeOn(t, m, addr, make([]byte, 8))

	// Wedge addr's line: both window slots fill with reads, and the
	// connection's goroutine blocks on the held lock applying the first.
	before := srv.WireStats().Frames
	line := srv.LineLock(addr)
	line.Lock()
	tagA := m.issue(opRead, readPayload(addr, 8))
	tagB := m.issue(opRead, readPayload(addr, 8))
	m.flush()

	// A membership-style lockstep ping on its own connection must answer
	// while the data window is wedged.
	pc, err := net.DialTimeout("tcp", srv.Addr(), dialTimeout)
	if err != nil {
		line.Unlock()
		t.Fatal(err)
	}
	defer pc.Close()
	pc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(pc, 0, opPing, nil); err != nil {
		line.Unlock()
		t.Fatalf("ping write: %v", err)
	}
	_, status, _, err := readFrame(bufio.NewReader(pc))
	if err != nil || status != statusOK {
		line.Unlock()
		t.Fatalf("ping while data window wedged: status %d, err %v", status, err)
	}
	// The reads really are wedged: while the line is held, the ping's reply
	// is the only frame the server sends.
	time.Sleep(20 * time.Millisecond)
	if sent := srv.WireStats().Frames - before; sent > 1 {
		line.Unlock()
		t.Fatalf("server sent %d frames while the read line was held, want only the ping's reply", sent)
	}

	line.Unlock()
	if _, ok := m.await(tagA); !ok {
		t.Fatal("wedged read A failed after unlock")
	}
	m.release(tagA)
	if _, ok := m.await(tagB); !ok {
		t.Fatal("wedged read B failed after unlock")
	}
	m.release(tagB)
}

// TestPreDialNoFirstOpHandshake pins the first-op latency fix: NewCluster
// pre-dials every server's mux at bring-up, so the first verb (and every
// later one) opens no new connection.
func TestPreDialNoFirstOpHandshake(t *testing.T) {
	srvs := make([]*Server, 2)
	endpoints := make([]string, 2)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(srv.Close)
		srvs[i] = srv
		endpoints[i] = srv.Addr()
	}

	// Heartbeats disabled: their watcher conns would race the count.
	c, err := NewCluster(endpoints, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	before := []int64{srvs[0].Accepted(), srvs[1].Accepted()}
	for i, n := range before {
		if n < 1 {
			t.Fatalf("server %d accepted %d conns at bring-up, want the pre-dialed mux", i, n)
		}
	}

	// Verbs against both servers: reads, writes, atomics.
	tr := c.NewTransport(0)
	for ms := uint16(0); ms < 2; ms++ {
		base := tr.GrowChunk(ms)
		a := transport.MakeAddr(ms, base)
		tr.Write(a, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		buf := make([]byte, 8)
		tr.Read(a, buf)
		tr.FAA(a, 1)
	}

	for i, srv := range srvs {
		if got := srv.Accepted(); got != before[i] {
			t.Fatalf("server %d accepted %d new conns after first verbs (%d -> %d); pre-dial regressed",
				i, got-before[i], before[i], got)
		}
	}
}
