package tcp

import (
	"bytes"
	"testing"

	"sherman/internal/transport"
)

// TestRawWaves: one WriteRaw call carrying more frames than the window holds
// completes (it awaits in waves instead of blocking on slots only its own
// awaits free), packs small ops into burst-sized frames, sends an op bigger
// than a burst alone, and stores every byte, which one ReadRaw reads back.
func TestRawWaves(t *testing.T) {
	c, err := NewCluster(startServers(t, 2), 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := transport.MakeAddr(1, c.GrowChunkRaw(1))

	const big, n = 40 << 10, 3 * defaultWindow // two never share a frame
	var ops []transport.WriteOp
	var off uint64
	for i := 0; i < n; i++ {
		size := big
		if i == 0 {
			size = burstBytes + 1 // bigger than any frame may be: rides alone
		}
		ops = append(ops, transport.WriteOp{Addr: base.Add(off), Data: bytes.Repeat([]byte{byte(i + 1)}, size)})
		off += uint64(size)
	}
	small := base.Add(off)
	for i := 0; i < 100; i++ { // 100 small ops ride in the last big op's frame
		ops = append(ops, transport.WriteOp{Addr: small.Add(uint64(i)), Data: []byte{byte(i)}})
	}

	frames := func() int64 { return c.WireStats()[1].Frames }
	before := frames()
	c.WriteRaw(ops...)
	if sent := frames() - before; sent != n {
		t.Fatalf("WriteRaw sent %d frames, want %d (one per big op, the small ones packed into the last)", sent, n)
	}
	reads := make([]transport.ReadOp, len(ops))
	for i, op := range ops {
		reads[i] = transport.ReadOp{Addr: op.Addr, Buf: make([]byte, len(op.Data))}
	}
	c.ReadRaw(reads...)
	for i := range ops {
		if !bytes.Equal(reads[i].Buf, ops[i].Data) {
			t.Fatalf("op %d at %v did not read back", i, ops[i].Addr)
		}
	}
}
