package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sherman/internal/memstore"
	"sherman/internal/transport"
)

// OnChipBytes is the NIC device-memory capacity each shermand exposes,
// matching the simulator's ConnectX-5 default (256 KB). Client and server
// agree on it via the Ping handshake.
const OnChipBytes = 256 << 10

// serverStart anchors this server process's monotonic clock. Ping responses
// carry nanoseconds since this instant so every client process can anchor
// lease arithmetic to the same origin (the server's), not its own — lease
// stamps written by one client process must be comparable in another.
var serverStart = time.Now()

// Server is one memory-server process's serving half: the memory store the
// simulator's servers embed too, plus an accept loop. cmd/shermand wraps it;
// tests can also run it in-process.
type Server struct {
	*memstore.Store
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
		Store:    memstore.New(OnChipBytes),
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
// apply it to the store, append the reply to the output buffer, and write
// that buffer once the inbound burst is drained (or it passes burstBytes).
// So a connection's verbs execute and are answered in posted order, as on an
// RC queue pair, a burst's answers ride one write, and no verb is handed to
// another goroutine. A verb waiting for a line's lock stalls only its own
// connection; the store's line locks order verbs across connections.
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
	switch op {
	case opPing:
		resp = appendU32(resp, protocolVersion)
		resp = appendU32(resp, OnChipBytes)
		return appendU64(resp, uint64(time.Since(serverStart).Nanoseconds())), nil

	case opRead, opReadBatch:
		count := 1
		if op == opReadBatch {
			count = int(p.u32())
		}
		// The reply is sized by the request alone (one address may be named
		// any number of times), so bound it before reading or allocating.
		q, total := *p, 0
		for i := 0; i < count && q.err == nil; i++ {
			q.u64()
			if total += int(q.u32()); total > maxFrame-5 {
				return resp, fmt.Errorf("read reply exceeds the %d-byte frame limit", maxFrame)
			}
		}
		resp = slices.Grow(resp, total)
		for i := 0; i < count; i++ {
			a := transport.Addr(p.u64())
			n := int(p.u32())
			if p.err != nil {
				return resp, p.err
			}
			at := len(resp)
			resp = resp[:at+n]
			if err := s.Read(a, resp[at:]); err != nil {
				return resp, err
			}
			s.NoteInbound(a, 1)
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
			if err := s.Write(a, data); err != nil {
				return resp, err
			}
			s.NoteInbound(a, 1)
		}
		return resp, p.err

	case opCAS:
		a := transport.Addr(p.u64())
		old, new := p.u64(), p.u64()
		if p.err != nil {
			return resp, p.err
		}
		prev, err := s.CAS(a, old, new)
		if err != nil {
			return resp, err
		}
		s.NoteInbound(a, 1)
		return append(appendU64(resp, prev), swapped(prev == old)), nil

	case opCAS16:
		a := transport.Addr(p.u64())
		old, new := p.u16(), p.u16()
		if p.err != nil {
			return resp, p.err
		}
		prev, err := s.CAS16(a, old, new)
		if err != nil {
			return resp, err
		}
		s.NoteInbound(a, 1)
		return append(resp, byte(prev), byte(prev>>8), swapped(prev == old)), nil

	case opFAA:
		a := transport.Addr(p.u64())
		delta := p.u64()
		if p.err != nil {
			return resp, p.err
		}
		prev, err := s.FAA(a, delta)
		if err != nil {
			return resp, err
		}
		s.NoteInbound(a, 1)
		return appendU64(resp, prev), nil

	case opGrow:
		s.NoteRPC()
		return appendU64(resp, s.Grow()), nil

	case opStats:
		chunks := s.ChunkOps()
		resp = appendU64(resp, uint64(s.InboundOps()))
		resp = appendU32(resp, uint32(len(chunks)))
		for _, n := range chunks {
			resp = appendU64(resp, uint64(n))
		}
		return resp, nil

	case opShutdown:
		return resp, nil

	default:
		return resp, fmt.Errorf("tcp: unknown opcode %d", op)
	}
}

// swapped encodes a compare-and-swap's outcome byte.
func swapped(ok bool) byte {
	if ok {
		return 1
	}
	return 0
}
