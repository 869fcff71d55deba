package tcp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/transport"
)

// TestBoundsMatchSimulator runs one table of verbs against both fabrics'
// memory servers, each with one grown chunk. Both must accept and refuse
// the same verbs, for the same reason: the simulator panics with the
// store's message, shermand answers it in a statusErr frame and keeps the
// connection up. A refused verb touches nothing: afterwards each server
// holds exactly the bytes the accepted verbs wrote.
func TestBoundsMatchSimulator(t *testing.T) {
	const chunk = transport.DefaultChunkSize
	host := func(off uint64) transport.Addr { return transport.MakeAddr(0, off) }
	chip := func(off uint64) transport.Addr { return transport.MakeOnChipAddr(0, off) }
	cases := []struct {
		name string
		op   byte // opRead, opWriteBatch (one write), opCAS, opCAS16 or opFAA
		a    transport.Addr
		n    int // read or write length
		ok   bool
	}{
		{"CAS at host offset 4", opCAS, host(4), 0, false},
		{"CAS at on-chip offset 60", opCAS, chip(60), 0, false},
		{"CAS16 at on-chip offset 63", opCAS16, chip(63), 0, false},
		{"FAA at host offset 4", opFAA, host(4), 0, false},
		{"read beyond grown memory", opRead, host(chunk), 8, false},
		{"write beyond grown memory", opWriteBatch, host(chunk + 64), 8, false},
		{"read straddling a chunk", opRead, host(chunk - 4), 8, false},
		{"write straddling a chunk", opWriteBatch, host(chunk - 4), 8, false},
		{"on-chip read past the region", opRead, chip(OnChipBytes - 4), 8, false},
		{"on-chip write past the region", opWriteBatch, chip(OnChipBytes), 1, false},
		{"aligned CAS", opCAS, host(8), 0, true},
		{"aligned on-chip CAS16", opCAS16, chip(62), 0, true},
		{"aligned FAA", opFAA, host(16), 0, true},
		{"host write crossing lines", opWriteBatch, host(60), 72, true},
		// Legal since both fabrics apply per line: shermand used to refuse it
		// because it took only the first line's stripe.
		{"on-chip read of 128 bytes", opRead, chip(0), 128, true},
		{"on-chip write crossing a line", opWriteBatch, chip(124), 8, true},
	}
	data := func(n int) []byte { return bytes.Repeat([]byte{0xEE}, n) }

	f := rdma.NewFabric(sim.DefaultParams(), 1, 1)
	f.Servers()[0].Grow()
	c := f.NewClient(0)
	simVerb := func(i int) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		switch v := cases[i]; v.op {
		case opRead:
			c.Read(v.a, make([]byte, v.n))
		case opWriteBatch:
			c.Write(v.a, data(v.n))
		case opCAS:
			c.CAS(v.a, 0, 1)
		case opCAS16:
			c.CAS16(v.a, 0, 1)
		case opFAA:
			c.FAA(v.a, 1)
		}
		return ""
	}

	srv := startServer(t)
	rc := dialRaw(t, srv.Addr())
	rc.req(opGrow, nil)
	tcpVerb := func(i int) (status byte, msg string) {
		var payload []byte
		switch v := cases[i]; v.op {
		case opRead:
			payload = readPayload(v.a, v.n)
		case opWriteBatch:
			payload = append(appendU32(appendU64(appendU32(nil, 1), uint64(v.a)), uint32(v.n)), data(v.n)...)
		case opCAS:
			payload = appendU64(appendU64(appendU64(nil, uint64(v.a)), 0), 1)
		case opCAS16:
			payload = append(appendU64(nil, uint64(v.a)), 0, 0, 1, 0)
		case opFAA:
			payload = appendU64(appendU64(nil, uint64(v.a)), 1)
		}
		if err := writeFrame(rc.c, uint32(i), cases[i].op, payload); err != nil {
			t.Fatal(err)
		}
		tag, status, resp, err := readFrame(rc.r)
		if err != nil || tag != uint32(i) {
			t.Fatalf("%s: reply tag %d, err %v", cases[i].name, tag, err)
		}
		return status, string(resp)
	}

	for i, v := range cases {
		panicked := simVerb(i)
		status, msg := tcpVerb(i)
		rc.req(opPing, nil) // the connection is still up
		switch {
		case v.ok && (panicked != "" || status != statusOK):
			t.Errorf("%s: refused (simulator %q, shermand status %d %q), want accepted", v.name, panicked, status, msg)
		case !v.ok && (status != statusErr || msg == "" || !strings.HasSuffix(panicked, msg)):
			t.Errorf("%s: simulator %q, shermand status %d %q; want both refused with one message", v.name, panicked, status, msg)
		}
	}

	// The accepted verbs' bytes; the refused atomics above would have
	// written next to them, at host offset 4 and on-chip offsets 60 and 63.
	hostWant, chipWant := make([]byte, 192), make([]byte, 192)
	hostWant[8], hostWant[16] = 1, 1 // the aligned CAS and FAA
	copy(hostWant[60:132], data(72))
	chipWant[62] = 1 // the aligned CAS16
	copy(chipWant[124:132], data(8))
	for _, r := range []struct {
		a    transport.Addr
		want []byte
	}{
		{host(0), hostWant},
		{host(chunk - 64), make([]byte, 64)}, // the refused straddling write
		{chip(0), chipWant},
		{chip(OnChipBytes - 64), make([]byte, 64)},
	} {
		simMem := make([]byte, len(r.want))
		c.Read(r.a, simMem)
		tcpMem := rc.req(opRead, readPayload(r.a, len(r.want)))
		if !bytes.Equal(simMem, r.want) || !bytes.Equal(tcpMem, r.want) {
			t.Errorf("[%v,+%d) after the table: simulator %x, shermand %x, want %x", r.a, len(r.want), simMem, tcpMem, r.want)
		}
	}
}
