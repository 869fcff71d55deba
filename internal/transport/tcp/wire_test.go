package tcp

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sherman/internal/transport"
)

// TestFrameRoundTrip encodes frames of assorted opcodes, tags and payload
// sizes and decodes them back, including several frames back to back on one
// stream (the pipelining case). Tags must echo exactly — they are the demux
// key of protocol v2.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0xAB},
		bytes.Repeat([]byte{0x5A}, 1024),
		bytes.Repeat([]byte{0xFF}, 1<<20),
	}
	tags := []uint32{0, 1, 63, 0xFFFFFFFF, 7}
	var buf bytes.Buffer
	for i, p := range payloads {
		op := byte(i + 1)
		if err := writeFrame(&buf, tags[i], op, p); err != nil {
			t.Fatalf("writeFrame(tag=%d, op=%d, %d bytes): %v", tags[i], op, len(p), err)
		}
	}
	for i, p := range payloads {
		tag, op, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame #%d: %v", i, err)
		}
		if tag != tags[i] {
			t.Fatalf("readFrame #%d: tag %d, want %d", i, tag, tags[i])
		}
		if op != byte(i+1) {
			t.Fatalf("readFrame #%d: opcode %d, want %d", i, op, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("readFrame #%d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("stream not fully consumed: %d bytes left", buf.Len())
	}
}

// TestFrameAppendMatchesWrite pins that the coalescing builder (appendFrame,
// what both ends post through) produces byte-identical wire output to
// writeFrame.
func TestFrameAppendMatchesWrite(t *testing.T) {
	payload := bytes.Repeat([]byte{3}, 37)
	var w bytes.Buffer
	if err := writeFrame(&w, 42, opCAS, payload); err != nil {
		t.Fatal(err)
	}
	if got := appendFrame(nil, 42, opCAS, payload); !bytes.Equal(got, w.Bytes()) {
		t.Fatalf("appendFrame diverges from writeFrame:\n  %v\n  %v", got, w.Bytes())
	}
}

// TestFrameTorn truncates an encoded frame at every possible byte boundary:
// a clean cut before any bytes is EOF, and any mid-frame cut — inside the
// tag, the opcode, or the payload — is ErrUnexpectedEOF: the peer died
// mid-frame, never a silent short payload.
func TestFrameTorn(t *testing.T) {
	var full bytes.Buffer
	if err := writeFrame(&full, 9, opCAS, bytes.Repeat([]byte{7}, 24)); err != nil {
		t.Fatal(err)
	}
	whole := full.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, _, err := readFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d: no error", cut, len(whole))
		}
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut at 0: err = %v, want EOF", err)
			}
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameBadLength rejects length fields below the tag+opcode minimum and
// above maxFrame instead of blocking on (or allocating for) a
// desynchronized stream.
func TestFrameBadLength(t *testing.T) {
	for _, n := range []uint32{0, 1, 4, maxFrame + 1, 1 << 31} {
		raw := appendU32(nil, n)
		raw = appendU32(raw, 0) // tag
		raw = append(raw, opPing)
		if _, _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
			t.Fatalf("length %d: no error", n)
		}
	}
}

// TestPayloadReaderShortRead checks that every accessor fails cleanly past
// the end of the payload and that the error sticks.
func TestPayloadReaderShortRead(t *testing.T) {
	b := appendU64(nil, 0xDEADBEEF)
	b = appendU32(b, 42)

	p := payloadReader{b: b}
	if v := p.u64(); v != 0xDEADBEEF || p.err != nil {
		t.Fatalf("u64 = %#x, err %v", v, p.err)
	}
	if v := p.u32(); v != 42 || p.err != nil {
		t.Fatalf("u32 = %d, err %v", v, p.err)
	}
	if v := p.u16(); v != 0 || p.err == nil {
		t.Fatalf("u16 past end = %d, err %v — want 0 and an error", v, p.err)
	}
	first := p.err
	if v := p.u8(); v != 0 || p.err != first {
		t.Fatalf("error did not stick: u8 = %d, err %v", v, p.err)
	}
	if v := p.bytes(8); v != nil {
		t.Fatalf("bytes past end = %v, want nil", v)
	}

	// A negative count must fail, not panic or wrap.
	q := payloadReader{b: b}
	if v := q.bytes(-1); v != nil || q.err == nil {
		t.Fatalf("bytes(-1) = %v, err %v", v, q.err)
	}
}

// rawClient is a lockstep test harness speaking raw v2 frames on one
// socket — deliberately below the mux, so server behavior (tag echo,
// status frames, payload layout) is pinned at the wire level.
type rawClient struct {
	t    *testing.T
	c    net.Conn
	r    *bufio.Reader
	next uint32
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, c: conn, r: bufio.NewReader(conn)}
}

// req sends one frame with a fresh tag and returns the response payload,
// failing the test unless the response echoes the tag with statusOK.
func (rc *rawClient) req(op byte, payload []byte) []byte {
	rc.t.Helper()
	rc.next++
	tag := rc.next
	if err := writeFrame(rc.c, tag, op, payload); err != nil {
		rc.t.Fatalf("op %d: write: %v", op, err)
	}
	gotTag, status, resp, err := readFrame(rc.r)
	if err != nil {
		rc.t.Fatalf("op %d: read: %v", op, err)
	}
	if gotTag != tag {
		rc.t.Fatalf("op %d: response tag %d, want %d", op, gotTag, tag)
	}
	if status != statusOK {
		rc.t.Fatalf("op %d: status %d, payload %q", op, status, resp)
	}
	return resp
}

// TestServerFrames drives one in-process Server over a real socket with raw
// v2 frames: ping, write/read round trip, batches, atomics, stats, on-chip
// addressing and the error path, verifying each response payload byte for
// byte.
func TestServerFrames(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	rc := dialRaw(t, srv.Addr())

	// Ping reports the protocol version and the on-chip size.
	p := payloadReader{b: rc.req(opPing, nil)}
	if got := p.u32(); got != protocolVersion {
		t.Fatalf("ping: version %d, want %d", got, protocolVersion)
	}
	if got := p.u32(); got != OnChipBytes || p.err != nil {
		t.Fatalf("ping: on-chip %d, want %d (err %v)", got, OnChipBytes, p.err)
	}

	// Grow a chunk, write into it, read it back.
	p = payloadReader{b: rc.req(opGrow, nil)}
	base := p.u64()
	if p.err != nil {
		t.Fatalf("grow: %v", p.err)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	w := appendU32(nil, 1)
	w = appendU64(w, base+16)
	w = appendU32(w, uint32(len(data)))
	w = append(w, data...)
	rc.req(opWriteBatch, w)

	r := appendU64(nil, base+16)
	r = appendU32(r, uint32(len(data)))
	if got := rc.req(opRead, r); !bytes.Equal(got, data) {
		t.Fatalf("read back %v, want %v", got, data)
	}

	// ReadBatch returns the concatenation in request order.
	rb := appendU32(nil, 2)
	rb = appendU64(rb, base+16)
	rb = appendU32(rb, 4)
	rb = appendU64(rb, base+20)
	rb = appendU32(rb, 4)
	if got := rc.req(opReadBatch, rb); !bytes.Equal(got, data) {
		t.Fatalf("read batch %v, want %v", got, data)
	}

	// CAS: success then failure, previous value reported both ways.
	cas := func(addr, old, new uint64) (uint64, bool) {
		c := appendU64(nil, addr)
		c = appendU64(c, old)
		c = appendU64(c, new)
		p := payloadReader{b: rc.req(opCAS, c)}
		prev, swapped := p.u64(), p.u8()
		if p.err != nil {
			t.Fatalf("cas: %v", p.err)
		}
		return prev, swapped != 0
	}
	if prev, ok := cas(base, 0, 99); !ok || prev != 0 {
		t.Fatalf("cas(0->99) = %d, %v", prev, ok)
	}
	if prev, ok := cas(base, 0, 7); ok || prev != 99 {
		t.Fatalf("cas(0->7) on 99 = %d, %v", prev, ok)
	}

	// FAA returns the old value and adds.
	f := appendU64(nil, base)
	f = appendU64(f, 1)
	p = payloadReader{b: rc.req(opFAA, f)}
	if old := p.u64(); old != 99 || p.err != nil {
		t.Fatalf("faa old = %d (err %v), want 99", old, p.err)
	}

	// CAS16 against on-chip device memory (top address bit).
	onChip := uint64(1) << 63
	c16 := appendU64(nil, onChip+2)
	c16 = append(c16, 0, 0)       // old u16
	c16 = append(c16, 0x34, 0x12) // new u16
	p = payloadReader{b: rc.req(opCAS16, c16)}
	prev16, swapped := p.u16(), p.u8()
	if p.err != nil || prev16 != 0 || swapped == 0 {
		t.Fatalf("cas16 = prev %#x swapped %d (err %v)", prev16, swapped, p.err)
	}

	// Stats reports the inbound op totals with a per-chunk breakdown. By
	// here the single grown chunk has absorbed: 1 write, 1 read, 2 batched
	// reads, 2 CAS, 1 FAA = 7 chunk ops; plus 1 on-chip CAS16 and the Grow
	// RPC in the total. Stats itself is control traffic and not counted.
	p = payloadReader{b: rc.req(opStats, nil)}
	total := p.u64()
	nchunks := p.u32()
	chunk0 := p.u64()
	if p.err != nil {
		t.Fatalf("stats: %v", p.err)
	}
	if nchunks != 1 || chunk0 != 7 || total != 9 {
		t.Fatalf("stats = total %d, %d chunks, chunk0 %d; want 9, 1, 7", total, nchunks, chunk0)
	}

	// A read beyond grown memory is an error frame that still echoes the
	// tag, and the connection stays usable afterwards.
	bad := appendU64(nil, uint64(1)<<40)
	bad = appendU32(bad, 8)
	if err := writeFrame(rc.c, 7777, opRead, bad); err != nil {
		t.Fatal(err)
	}
	tag, status, msg, err := readFrame(rc.r)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 7777 || status != statusErr || len(msg) == 0 {
		t.Fatalf("out-of-range read: tag %d, status %d, msg %q", tag, status, msg)
	}
	rc.req(opPing, nil) // still alive
	// (Every other bounds and alignment rule is TestBoundsMatchSimulator's.)

	// A ReadBatch whose reply would pass maxFrame — one valid address named
	// many times, so nothing but the sum is wrong — is refused before the
	// server sizes a buffer for it, and the connection stays usable.
	const huge = maxFrame/(1<<20) + 1
	rb = appendU32(nil, huge)
	for i := 0; i < huge; i++ {
		rb = appendU32(appendU64(rb, base), 1<<20)
	}
	if err := writeFrame(rc.c, 8888, opReadBatch, rb); err != nil {
		t.Fatal(err)
	}
	tag, status, msg, err = readFrame(rc.r)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 8888 || status != statusErr || len(msg) == 0 {
		t.Fatalf("oversized read batch: tag %d, status %d, %d-byte payload", tag, status, len(msg))
	}
	rc.req(opPing, nil) // still alive
}

// startServer runs one in-process server the test can reach into.
func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv
}

// TestServerPostedOrderPerConnection pins the queue-pair contract: the
// verbs of one connection execute, and are answered, in posted order. A
// WriteBatch, a Read, a CAS and a second Read of one address leave in a
// single write; each must observe exactly the verbs posted before it, and
// the replies come back in that order under their own tags.
func TestServerPostedOrderPerConnection(t *testing.T) {
	srv := startServer(t)
	rc := dialRaw(t, srv.Addr())
	p := payloadReader{b: rc.req(opGrow, nil)}
	base := p.u64()

	first, second := uint64(0x1111111111111111), uint64(0x2222222222222222)
	w := appendU32(appendU64(appendU32(nil, 1), base), 8)
	w = appendU64(w, first)
	rd := appendU32(appendU64(nil, base), 8)
	cas := appendU64(appendU64(appendU64(nil, base), first), second)

	burst := appendFrame(nil, 10, opWriteBatch, w)
	burst = appendFrame(burst, 11, opRead, rd)
	burst = appendFrame(burst, 12, opCAS, cas)
	burst = appendFrame(burst, 13, opRead, rd)
	if _, err := rc.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		nil,
		appendU64(nil, first),
		append(appendU64(nil, first), 1), // prev = what the write left, swapped
		appendU64(nil, second),
	}
	for i, w := range want {
		tag, status, resp, err := readFrame(rc.r)
		if err != nil || status != statusOK {
			t.Fatalf("reply %d: status %d, err %v", i, status, err)
		}
		if tag != uint32(10+i) {
			t.Fatalf("reply %d carries tag %d, want %d: replies left out of posted order", i, tag, 10+i)
		}
		if !bytes.Equal(resp, w) {
			t.Fatalf("reply %d (tag %d) = %x, want %x: the verb did not observe its predecessors", i, tag, resp, w)
		}
	}
}

// TestAcquireDoorbellSeesReleasersWriteBack pins what the acquire doorbell
// rests on, across connections: a holder on one connection posts its
// write-back and its lock release as one in-order doorbell; an acquirer on
// another connection spins CAS16Read on that lock. Whatever its losing
// attempts fetched, the attempt that wins must carry the image the release
// was posted behind — round after round, the release racing a spin that has
// already lost at least once.
func TestAcquireDoorbellSeesReleasersWriteBack(t *testing.T) {
	srv := startServer(t)
	c, err := NewCluster([]string{srv.Addr()}, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := c.NewTransport(0)
	node := transport.MakeAddr(0, tr.GrowChunk(0)+4096)
	lock := transport.MakeOnChipAddr(0, 10)

	// The holder speaks raw frames on a connection of its own.
	holder := dialRaw(t, srv.Addr())
	const rounds, size = 300, 1024
	tr.PostWrites(transport.WriteOp{Addr: lock, Data: []byte{1, 0}}) // the holder's stamp
	won := make(chan struct{})
	var lost atomic.Int64
	go func() {
		defer close(won)
		buf := make([]byte, size)
		for r := 1; r <= rounds; r++ {
			for {
				if _, ok := tr.CAS16Read(lock, 0, 2, node, buf); ok {
					break
				}
				lost.Add(1)
			}
			if want := bytes.Repeat([]byte{byte(r)}, size); !bytes.Equal(buf, want) {
				t.Errorf("round %d: the winning CAS16Read carried image %d..%d, want the releaser's %d",
					r, buf[0], buf[size-1], byte(r))
				return
			}
			// Hand the lock back: the holder's stamp, so it owns round r+1.
			tr.PostWrites(transport.WriteOp{Addr: lock, Data: []byte{1, 0}})
			won <- struct{}{}
		}
	}()
	for r := 1; r <= rounds; r++ {
		// Let the spin lose against this round's hold first.
		for seen := lost.Load(); lost.Load() == seen; {
			select {
			case <-won:
				return // the acquirer gave up (it sends only after a win)
			default:
				runtime.Gosched()
			}
		}
		// Write-back + release, one doorbell: [node := image r, lock := 0].
		w := appendU32(appendU64(appendU32(nil, 2), uint64(node)), size)
		w = append(w, bytes.Repeat([]byte{byte(r)}, size)...)
		w = append(appendU32(appendU64(w, uint64(lock)), 2), 0, 0)
		holder.req(opWriteBatch, w)
		if _, ok := <-won; !ok {
			return
		}
	}
}

// TestAcquireDoorbellFullWindow: with one free slot left in the window the
// doorbell's READ cannot be posted behind its CAS — a thread holding a slot
// must not block for another — so it follows serially: same answer, two
// round trips.
func TestAcquireDoorbellFullWindow(t *testing.T) {
	c, err := NewCluster(startServers(t, 1), 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := c.NewTransport(0)
	node := transport.MakeAddr(0, tr.GrowChunk(0)+64)
	tr.Write(node, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	mx := c.muxes[0]
	var held []uint32
	for len(mx.free) > 1 {
		held = append(held, <-mx.free)
	}
	buf := make([]byte, 8)
	before := tr.Metrics().RoundTrips
	if prev, ok := tr.CAS16Read(transport.MakeOnChipAddr(0, 0), 0, 1, node, buf); !ok || prev != 0 {
		t.Fatalf("CAS16Read on a nearly full window = %d, %v", prev, ok)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("buf = %v", buf)
	}
	if rt := tr.Metrics().RoundTrips - before; rt != 2 {
		t.Fatalf("%d round trips, want 2 (the READ could not ride the CAS)", rt)
	}
	for _, tag := range held {
		mx.free <- tag
	}
	before = tr.Metrics().RoundTrips
	tr.CAS16Read(transport.MakeOnChipAddr(0, 0), 0, 1, node, buf)
	if rt := tr.Metrics().RoundTrips - before; rt != 1 {
		t.Fatalf("%d round trips with the window free again, want 1", rt)
	}
}

// TestAcquireDoorbellAllocatesNothing: the doorbell reuses the payload
// scratch and two window slots, so once warm it allocates nothing at either
// end (client and in-process server share the measured heap).
func TestAcquireDoorbellAllocatesNothing(t *testing.T) {
	c, err := NewCluster(startServers(t, 1), 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := c.NewTransport(0)
	node := transport.MakeAddr(0, tr.GrowChunk(0)+1024)
	lock := transport.MakeOnChipAddr(0, 4)
	buf := make([]byte, 1024)
	if avg := testing.AllocsPerRun(2000, func() {
		tr.CAS16Read(lock, 0, 1, node, buf)
		tr.PostWrites(transport.WriteOp{Addr: lock, Data: []byte{0, 0}})
	}); avg > 0.01 {
		t.Fatalf("lock doorbell + release allocate %.3f objects per pair, want 0", avg)
	}
}

// TestServerBurstAnsweredWithOneWrite pins the reply coalescing: N frames
// that arrive in one segment are answered with one write syscall.
func TestServerBurstAnsweredWithOneWrite(t *testing.T) {
	srv := startServer(t)
	rc := dialRaw(t, srv.Addr())
	rc.req(opGrow, nil)

	const n = 16
	var burst []byte
	for i := 0; i < n; i++ {
		burst = appendFrame(burst, uint32(100+i), opPing, nil)
	}
	before := srv.WireStats()
	if _, err := rc.c.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if tag, status, _, err := readFrame(rc.r); err != nil || status != statusOK || tag != uint32(100+i) {
			t.Fatalf("reply %d: tag %d, status %d, err %v", i, tag, status, err)
		}
	}
	after := srv.WireStats()
	if frames, writes := after.Frames-before.Frames, after.Writes-before.Writes; frames != n || writes != 1 {
		t.Fatalf("%d frames in one segment were answered by %d frames in %d writes, want %d in 1", n, frames, writes, n)
	}
	if reads := after.Reads - before.Reads; reads != 1 {
		t.Fatalf("the segment took %d read syscalls, want 1", reads)
	}
}

// TestWedgedStripeStallsOnlyItsConnection pins what in-order execution does
// not cost: a verb of connection A waiting for a held stripe stalls A alone;
// connection B's verbs to other stripes are answered meanwhile.
func TestWedgedStripeStallsOnlyItsConnection(t *testing.T) {
	srv := startServer(t)
	a, b := dialRaw(t, srv.Addr()), dialRaw(t, srv.Addr())
	p := payloadReader{b: a.req(opGrow, nil)}
	chunk0 := p.u64()
	p = payloadReader{b: a.req(opGrow, nil)}
	chunk1 := p.u64()

	line := srv.LineLock(transport.MakeAddr(0, chunk0))
	line.Lock()
	unlock := sync.OnceFunc(line.Unlock)
	defer unlock()
	if err := writeFrame(a.c, 1, opRead, appendU32(appendU64(nil, chunk0), 8)); err != nil {
		t.Fatal(err)
	}

	// chunk1's first line shares chunk0's stripe (a host line's stripe is
	// its index modulo 2048, and a chunk is a whole number of 2048 lines),
	// so B targets chunk1's second line.
	b.c.SetDeadline(time.Now().Add(5 * time.Second))
	faa := appendU64(appendU64(nil, chunk1+64), 1)
	for i := uint64(0); i < 3; i++ {
		p = payloadReader{b: b.req(opFAA, faa)}
		if old := p.u64(); old != i {
			t.Fatalf("faa %d on the free stripe returned %d", i, old)
		}
	}

	unlock()
	if tag, status, _, err := readFrame(a.r); err != nil || status != statusOK || tag != 1 {
		t.Fatalf("wedged read after unlock: tag %d, status %d, err %v", tag, status, err)
	}
}
