package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sherman/internal/transport"
)

// OnChipBytes is the NIC device-memory capacity each shermand exposes,
// matching the simulator's ConnectX-5 default (256 KB). Client and server
// agree on it via the Ping handshake.
const OnChipBytes = 256 << 10

const chunkSize = transport.DefaultChunkSize

// numStripes is the lock-striping width of each address space half: host
// chunks stripe by chunk index, the on-chip region by 64-byte line, so
// requests of different connections to different chunks (or different lock
// words) never serialize on one mutex. 64 stripes comfortably exceed any
// plausible number of connections working at once.
const numStripes = 64

// serverStart anchors this server process's monotonic clock. Ping responses
// carry nanoseconds since this instant so every client process can anchor
// lease arithmetic to the same origin (the server's), not its own — lease
// stamps written by one client process must be comparable in another.
var serverStart = time.Now()

// storeSnap is the immutable chunk directory: the chunk slices plus their
// inbound-op counters, republished wholesale on every Grow so readers
// navigate lock-free.
type storeSnap struct {
	chunks [][]byte
	ops    []*atomic.Int64
}

// store is one memory server's memory: host chunks handed out by Grow plus
// the fixed on-chip region. Every access locks only its stripe — host
// stripes by chunk, on-chip stripes by 64-byte line — so each verb (and
// each op of a batch, applied in posted order) is individually atomic,
// matching RDMA's per-verb atomicity (DESIGN.md §13).
type store struct {
	growMu sync.Mutex
	snap   atomic.Pointer[storeSnap]
	onChip []byte

	// locks[0:numStripes] guard host chunks, locks[numStripes:] on-chip lines.
	locks [2 * numStripes]sync.Mutex

	// totalOps counts every inbound data verb (reads, writes, atomics) plus
	// allocation RPCs; chipOps the on-chip subset. Per-chunk counts live in
	// the snapshot. Together they answer the Stats opcode.
	totalOps atomic.Int64
	chipOps  atomic.Int64
}

func newStore() *store {
	s := &store{onChip: make([]byte, OnChipBytes)}
	s.snap.Store(&storeSnap{})
	return s
}

// region is one located access target: the bytes, the stripe lock guarding
// them, and the per-chunk counter to bump (nil for on-chip targets).
type region struct {
	b   []byte
	mu  *sync.Mutex
	ops *atomic.Int64
}

// locate resolves [off, off+n) in the addressed memory space. Tree nodes and
// lock words never straddle a chunk boundary (the allocator carves aligned
// blocks out of aligned chunks), so a region crossing one is a protocol
// error, not a case to support. So is an on-chip region crossing a 64-byte
// line: on-chip stripes guard one line each, and only the first line's
// stripe is taken.
func (s *store) locate(a transport.Addr, n int) (region, error) {
	off := a.Off()
	if a.OnChip() {
		if off+uint64(n) > uint64(len(s.onChip)) {
			return region{}, fmt.Errorf("on-chip access [%#x,+%d) exceeds %d B", off, n, len(s.onChip))
		}
		if n > 0 && off>>6 != (off+uint64(n)-1)>>6 {
			return region{}, fmt.Errorf("on-chip access [%#x,+%d) crosses a 64-byte line", off, n)
		}
		return region{
			b:  s.onChip[off : off+uint64(n)],
			mu: &s.locks[numStripes+int((off>>6)%numStripes)],
		}, nil
	}
	snap := s.snap.Load()
	ci := off / chunkSize
	if ci >= uint64(len(snap.chunks)) {
		return region{}, fmt.Errorf("access [%#x,+%d) beyond grown memory (%d chunks)", off, n, len(snap.chunks))
	}
	co := off % chunkSize
	if co+uint64(n) > chunkSize {
		return region{}, fmt.Errorf("access [%#x,+%d) straddles a chunk boundary", off, n)
	}
	return region{
		b:   snap.chunks[ci][co : co+uint64(n)],
		mu:  &s.locks[ci%numStripes],
		ops: snap.ops[ci],
	}, nil
}

// locateAtomic is locate for an atomic of width n, which must be n-aligned
// (the simulator panics on the same misuse): an unaligned word could
// straddle two on-chip lines while holding one stripe.
func (s *store) locateAtomic(a transport.Addr, n int) (region, error) {
	if a.Off()%uint64(n) != 0 {
		return region{}, fmt.Errorf("unaligned %d-byte atomic at %#x", n, a.Off())
	}
	return s.locate(a, n)
}

// count books one inbound op against the server totals and r's chunk.
func (s *store) count(r region) {
	s.totalOps.Add(1)
	if r.ops != nil {
		r.ops.Add(1)
	} else {
		s.chipOps.Add(1)
	}
}

// grow appends one chunk, republishing the snapshot. Growth serializes on
// growMu; in-flight accesses keep reading the old snapshot (they cannot
// target the new chunk, whose base is unpublished until the response).
func (s *store) grow() uint64 {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := s.snap.Load()
	base := uint64(len(old.chunks)) * chunkSize
	next := &storeSnap{
		chunks: append(append([][]byte(nil), old.chunks...), make([]byte, chunkSize)),
		ops:    append(append([]*atomic.Int64(nil), old.ops...), new(atomic.Int64)),
	}
	s.snap.Store(next)
	return base
}

// Server is one memory-server process's serving half: the store plus an
// accept loop. cmd/shermand wraps it; tests can also run it in-process.
type Server struct {
	st *store
	ln net.Listener

	accepted atomic.Int64

	// Data-path counters over all connections (WireStats).
	frames, writes, reads atomic.Int64

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown chan struct{}
	once     sync.Once
}

// NewServer creates a server listening on addr ("host:0" picks a free
// port). Call Serve to start accepting and Addr for the bound address.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		st:       newStore(),
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accepted returns the number of connections the server has accepted — the
// pre-dial regression probe: a cluster that pre-dials at bring-up accepts
// nothing new when the first verb flies.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// WireStats counts a connection end's data-path work: frames it sent and the
// write and read syscalls it made. Frames/Writes is the coalescing actually
// achieved (DESIGN.md §13).
type WireStats struct {
	Frames, Writes, Reads int64
}

// WireStats returns the totals over every connection served so far: reply
// frames sent, and the syscalls that carried them and read their requests.
func (s *Server) WireStats() WireStats {
	return WireStats{Frames: s.frames.Load(), Writes: s.writes.Load(), Reads: s.reads.Load()}
}

// Done is closed when a Shutdown frame arrives or Close is called.
func (s *Server) Done() <-chan struct{} { return s.shutdown }

// Close stops the server: the listener closes, open connections drop.
func (s *Server) Close() {
	s.once.Do(func() { close(s.shutdown) })
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Serve accepts connections until Close (or a Shutdown frame). It returns
// nil on orderly shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.shutdown:
				return nil
			default:
				return err
			}
		}
		s.accepted.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn runs one client connection on one goroutine: decode a frame,
// apply it under its stripe lock, append the reply to the output buffer, and
// write that buffer once the inbound burst is drained (or it passes
// burstBytes). So a connection's verbs execute and are answered in posted
// order, as on an RC queue pair, a burst's answers ride one write, and no
// verb is handed to another goroutine. A verb waiting for a stripe stalls
// only its own connection; the stripe locks order verbs across connections.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := frameReader{src: conn, reads: &s.reads}
	var out []byte
	var pending int64 // reply frames in out
	for {
		tag, op, payload, err := fr.next()
		if err != nil {
			return // peer hung up (or died mid-frame); its state is already durable
		}
		out = s.reply(out, tag, op, payload)
		pending++
		if fr.buffered() && len(out) < burstBytes && op != opShutdown {
			continue
		}
		s.frames.Add(pending)
		s.writes.Add(1)
		_, err = conn.Write(out)
		out, pending = out[:0], 0
		if err != nil {
			return
		}
		if op == opShutdown {
			s.Close() // the ack is on the wire
			return
		}
	}
}

// reply applies one request and appends its response frame to out.
func (s *Server) reply(out []byte, tag uint32, op byte, payload []byte) []byte {
	head := len(out)
	out, err := s.handle(op, payload, appendFrame(out, tag, statusOK, nil))
	if err != nil {
		out = append(out[:head+frameHeader], err.Error()...)
		out[head+8] = statusErr
	}
	binary.LittleEndian.PutUint32(out[head:], uint32(len(out)-head-4))
	return out
}

// handle applies one request frame, appending the response payload to resp
// and returning it. On error whatever it appended is the caller's to drop.
func (s *Server) handle(op byte, payload, resp []byte) ([]byte, error) {
	p := &payloadReader{b: payload}
	st := s.st
	switch op {
	case opPing:
		resp = appendU32(resp, protocolVersion)
		resp = appendU32(resp, OnChipBytes)
		return appendU64(resp, uint64(time.Since(serverStart).Nanoseconds())), nil

	case opRead:
		a := transport.Addr(p.u64())
		n := int(p.u32())
		if p.err != nil {
			return resp, p.err
		}
		reg, err := st.locate(a, n)
		if err != nil {
			return resp, err
		}
		resp = slices.Grow(resp, n)
		reg.mu.Lock()
		resp = append(resp, reg.b...)
		reg.mu.Unlock()
		st.count(reg)
		return resp, nil

	case opReadBatch:
		count := int(p.u32())
		// The reply is sized by the request alone (one address may be named
		// any number of times), so bound it before reading or allocating.
		q, total := *p, 0
		for i := 0; i < count && q.err == nil; i++ {
			q.u64()
			if total += int(q.u32()); total > maxFrame-5 {
				return resp, fmt.Errorf("read batch reply exceeds the %d-byte frame limit", maxFrame)
			}
		}
		resp = slices.Grow(resp, total)
		for i := 0; i < count; i++ {
			a := transport.Addr(p.u64())
			n := int(p.u32())
			if p.err != nil {
				return resp, p.err
			}
			reg, err := st.locate(a, n)
			if err != nil {
				return resp, err
			}
			reg.mu.Lock()
			resp = append(resp, reg.b...)
			reg.mu.Unlock()
			st.count(reg)
		}
		return resp, p.err

	case opWriteBatch:
		count := int(p.u32())
		for i := 0; i < count; i++ {
			a := transport.Addr(p.u64())
			n := int(p.u32())
			data := p.bytes(n)
			if p.err != nil {
				return resp, p.err
			}
			reg, err := st.locate(a, n)
			if err != nil {
				return resp, err
			}
			reg.mu.Lock()
			copy(reg.b, data)
			reg.mu.Unlock()
			st.count(reg)
		}
		return resp, p.err

	case opCAS:
		a := transport.Addr(p.u64())
		old, new := p.u64(), p.u64()
		if p.err != nil {
			return resp, p.err
		}
		reg, err := st.locateAtomic(a, 8)
		if err != nil {
			return resp, err
		}
		reg.mu.Lock()
		prev := leU64(reg.b)
		swapped := byte(0)
		if prev == old {
			putU64(reg.b, new)
			swapped = 1
		}
		reg.mu.Unlock()
		st.count(reg)
		return append(appendU64(resp, prev), swapped), nil

	case opCAS16:
		a := transport.Addr(p.u64())
		old, new := p.u16(), p.u16()
		if p.err != nil {
			return resp, p.err
		}
		reg, err := st.locateAtomic(a, 2)
		if err != nil {
			return resp, err
		}
		reg.mu.Lock()
		prev := uint16(reg.b[0]) | uint16(reg.b[1])<<8
		swapped := byte(0)
		if prev == old {
			reg.b[0], reg.b[1] = byte(new), byte(new>>8)
			swapped = 1
		}
		reg.mu.Unlock()
		st.count(reg)
		return append(resp, byte(prev), byte(prev>>8), swapped), nil

	case opFAA:
		a := transport.Addr(p.u64())
		delta := p.u64()
		if p.err != nil {
			return resp, p.err
		}
		reg, err := st.locateAtomic(a, 8)
		if err != nil {
			return resp, err
		}
		reg.mu.Lock()
		prev := leU64(reg.b)
		putU64(reg.b, prev+delta)
		reg.mu.Unlock()
		st.count(reg)
		return appendU64(resp, prev), nil

	case opGrow:
		st.totalOps.Add(1)
		return appendU64(resp, st.grow()), nil

	case opStats:
		snap := st.snap.Load()
		resp = appendU64(resp, uint64(st.totalOps.Load()))
		resp = appendU32(resp, uint32(len(snap.ops)))
		for _, c := range snap.ops {
			resp = appendU64(resp, uint64(c.Load()))
		}
		return resp, nil

	case opShutdown:
		return resp, nil

	default:
		return resp, fmt.Errorf("tcp: unknown opcode %d", op)
	}
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}
