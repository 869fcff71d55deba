// Package tcp is the real-network transport: memory servers are OS
// processes (cmd/shermand) serving chunks, locks and atomics over a
// length-prefixed binary protocol, and clients implement
// transport.Transport over multiplexed per-server connections with real
// clocks.
//
// Wire protocol (version 2). Every message is one frame:
//
//	[u32 length][u32 tag][u8 opcode][payload]
//
// little-endian, where length covers the tag, the opcode byte and the
// payload. Requests carry an operation opcode and a caller-chosen tag;
// the response echoes the tag and reuses the opcode slot as a status byte
// (statusOK with a result payload, statusErr with a UTF-8 message). Tags
// let many requests of many client threads share one connection: the
// client keeps a bounded window of tagged slots per server, posting a frame
// only appends it to the connection's buffer, a thread about to block
// writes every posted frame with one write, and whichever awaiting thread
// finds its slot incomplete reads the socket and demuxes responses by tag
// (see mux.go). A doorbell batch of dependent writes still coalesces into a
// single WriteBatch frame — one network round trip, the §4.5 batching
// mapped onto TCP.
//
// The server runs one goroutine per connection that applies each frame as
// it decodes it, so one connection's verbs execute — and are answered — in
// posted order, exactly like an RC queue pair; a burst's answers leave in
// one write. The acquire doorbell (CASRead/CAS16Read) is built on that
// order alone: a CAS frame and a Read frame posted back to back, no opcode
// of its own. Across connections the server's memory (internal/memstore,
// the simulator's too) applies each verb per 64-byte line in increasing
// address order, each line under its stripe lock, and each atomic under
// its line's: the atomicity a NIC provides, so a read can tear at line
// boundaries. See DESIGN.md §13 for why the tree protocol needs nothing
// stronger.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// protocolVersion is checked during the Ping handshake: a v1 peer (5-byte
// headers) would silently desynchronize a v2 reader, so the version rides
// first in the Ping response and a mismatch fails cluster bring-up.
const protocolVersion = 2

// Request opcodes.
const (
	opPing       byte = 1  // () -> u32 version, u32 onChipSize, u64 serverNowNS (clock epoch)
	opRead       byte = 2  // addr u64, n u32 -> n bytes
	opReadBatch  byte = 3  // count u32, (addr u64, n u32)* -> concatenated bytes
	opWriteBatch byte = 4  // count u32, (addr u64, n u32, data)* applied in order -> ()
	opCAS        byte = 5  // addr u64, old u64, new u64 -> prev u64, swapped u8
	opCAS16      byte = 6  // addr u64, old u16, new u16 -> prev u16, swapped u8
	opFAA        byte = 7  // addr u64, delta u64 -> old u64
	opGrow       byte = 8  // () -> base u64
	opShutdown   byte = 9  // () -> (), then the server exits
	opStats      byte = 10 // () -> total u64, count u32, (chunkOps u64)*
)

// Response status bytes (the opcode slot of a response frame).
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// frameHeader is the fixed prefix of every frame: length, tag, opcode.
const frameHeader = 9

// maxFrame bounds a frame's length field: one chunk plus batching slack.
// A reader that sees a bigger length is desynchronized (or under attack)
// and errors out instead of allocating unboundedly.
const maxFrame = 64 << 20

// appendFrame appends one whole frame to b — the coalescing building block:
// both ends append several frames to one buffer and send them with a single
// Write.
func appendFrame(b []byte, tag uint32, op byte, payload []byte) []byte {
	b = appendU32(b, uint32(5+len(payload)))
	b = appendU32(b, tag)
	b = append(b, op)
	return append(b, payload...)
}

// writeFrame emits one frame with a single Write. payload may be nil.
func writeFrame(w io.Writer, tag uint32, op byte, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(5+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], tag)
	hdr[8] = op
	if len(payload) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	buf := make([]byte, 0, frameHeader+len(payload))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads exactly one frame and nothing beyond it — the lockstep
// reader of the heartbeat connection and the tests — returning its tag,
// opcode (or status) byte and payload. A torn or truncated frame — the peer
// died mid-write — surfaces as io.ErrUnexpectedEOF; a length outside
// [5, maxFrame] as a framing error.
func readFrame(r io.Reader) (tag uint32, op byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < 5 || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("tcp: bad frame length %d", n)
	}
	if _, err = io.ReadFull(r, hdr[4:]); err == nil {
		payload = make([]byte, n-5)
		_, err = io.ReadFull(r, payload)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	return binary.LittleEndian.Uint32(hdr[4:8]), hdr[8], payload, nil
}

// burstBytes is where both ends size a connection's buffers: a frameReader
// starts with this much room, so a window's worth of small frames arrives
// in one read, and the server sends its pending replies once they pass it.
const burstBytes = 64 << 10

// frameReader decodes frames out of one recycled buffer filled with
// whatever each socket read returns, so a burst of frames costs one read
// syscall and the steady path allocates nothing. The buffer grows only for
// a frame larger than it. A frameReader is used by one goroutine at a time.
type frameReader struct {
	src   io.Reader
	buf   []byte
	r, w  int           // buf[r:w] is read but not yet decoded
	reads *atomic.Int64 // counts calls to src.Read
}

// buffered reports whether a whole frame is waiting in the buffer, that is,
// whether next returns without touching the socket.
func (f *frameReader) buffered() bool {
	avail := f.w - f.r
	return avail >= 4 && avail-4 >= int(binary.LittleEndian.Uint32(f.buf[f.r:]))
}

// next returns the next frame. The payload aliases the buffer and is valid
// until the following call. Errors are readFrame's.
func (f *frameReader) next() (tag uint32, op byte, payload []byte, err error) {
	for {
		need := 4
		if avail := f.w - f.r; avail >= 4 {
			n := binary.LittleEndian.Uint32(f.buf[f.r:])
			if n < 5 || n > maxFrame {
				return 0, 0, nil, fmt.Errorf("tcp: bad frame length %d", n)
			}
			need += int(n)
			if avail >= need {
				b := f.buf[f.r : f.r+need]
				f.r += need
				return binary.LittleEndian.Uint32(b[4:8]), b[8], b[frameHeader:], nil
			}
		}
		if err := f.fill(need); err != nil {
			return 0, 0, nil, err
		}
	}
}

// fill makes room for a frame of need bytes at buf[r:] and reads once.
func (f *frameReader) fill(need int) error {
	if f.r == f.w {
		f.r, f.w = 0, 0
	}
	if f.r+need > len(f.buf) {
		to := f.buf
		if need > len(to) {
			to = make([]byte, max(need, burstBytes))
		}
		f.w = copy(to, f.buf[f.r:f.w])
		f.r, f.buf = 0, to
	}
	n, err := f.src.Read(f.buf[f.w:])
	f.reads.Add(1)
	f.w += n
	if n > 0 {
		return nil // an error that came with bytes comes back on the next read
	}
	if err == io.EOF && f.w > f.r {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// appendU64/appendU32 are the payload builders shared by client and server.
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// payloadReader decodes a request/response payload field by field.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) u64() uint64 {
	if p.err != nil || p.off+8 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

func (p *payloadReader) u32() uint32 {
	if p.err != nil || p.off+4 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) u16() uint16 {
	if p.err != nil || p.off+2 > len(p.b) {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *payloadReader) u8() uint8 {
	if p.err != nil || p.off+1 > len(p.b) {
		p.fail()
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

func (p *payloadReader) bytes(n int) []byte {
	if p.err != nil || n < 0 || p.off+n > len(p.b) {
		p.fail()
		return nil
	}
	v := p.b[p.off : p.off+n]
	p.off += n
	return v
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("tcp: short payload (%d bytes, need more at offset %d)", len(p.b), p.off)
	}
}
