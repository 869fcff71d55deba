package tcp

import (
	"bytes"
	"strings"
	"syscall"
	"testing"
	"time"

	"sherman/internal/hocl"
	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/transport"
)

// startServers runs n in-process memory servers on loopback and returns
// their endpoints. In-process servers exercise the full wire protocol
// without building cmd/shermand.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	endpoints := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(srv.Close)
		endpoints[i] = srv.Addr()
	}
	return endpoints
}

// TestDeadVerbsMatchSimulator is the cross-backend contract test for dead
// memory (DESIGN.md §12): reads zero-fill, writes are discarded, and atomics
// fabricate their response from zeroed memory — a CAS expecting 0 appears to
// succeed so lock acquisition proceeds into its validating read, which
// observes the death. The same verb script runs against a simulated fabric
// and a TCP cluster with a server marked dead; every response must match.
func TestDeadVerbsMatchSimulator(t *testing.T) {
	type doorbell struct {
		prev   uint64
		ok     bool
		buf    [8]byte
		counts transport.Metrics // what the one verb added
	}
	type outcome struct {
		readZero             bool
		casZeroPrev, casPrev uint64
		casZeroOK, casOK     bool
		cas16Prev            uint16
		cas16ZeroOK, cas16OK bool
		faa                  uint64
		// The acquire doorbell against the live server (a win, then a loss:
		// the READ is served either way) and against the dead one.
		liveWin, liveLose, live16, deadWin, deadLose, dead16 doorbell
	}

	script := func(c transport.Transport, base uint64, kill func()) outcome {
		a := transport.MakeAddr(1, base+64)
		c.Write(a, []byte{9, 9, 9, 9, 9, 9, 9, 9})
		lock, lock16 := transport.MakeAddr(1, base+128), transport.MakeOnChipAddr(1, 6)
		casRead := func(old, new uint64) (d doorbell) {
			copy(d.buf[:], "garbage!")
			*c.Metrics() = transport.Metrics{}
			d.prev, d.ok = c.CASRead(lock, old, new, a, d.buf[:])
			d.counts = *c.Metrics()
			return d
		}
		cas16Read := func(old, new uint16) (d doorbell) {
			copy(d.buf[:], "garbage!")
			*c.Metrics() = transport.Metrics{}
			prev, ok := c.CAS16Read(lock16, old, new, a, d.buf[:])
			d.prev, d.ok = uint64(prev), ok
			d.counts = *c.Metrics()
			return d
		}
		var o outcome
		o.liveWin = casRead(0, 5)
		o.liveLose = casRead(0, 6)
		o.live16 = cas16Read(0, 5)
		kill()
		buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		c.Read(a, buf)
		o.readZero = bytes.Equal(buf, make([]byte, 8))
		o.casZeroPrev, o.casZeroOK = c.CAS(a, 0, 42) // expecting zero: fabricated success
		o.casPrev, o.casOK = c.CAS(a, 9, 42)         // expecting the old bytes: failure
		_, o.cas16ZeroOK = c.CAS16(transport.MakeOnChipAddr(1, 2), 0, 7)
		o.cas16Prev, o.cas16OK = c.CAS16(transport.MakeOnChipAddr(1, 2), 3, 7)
		o.faa = c.FAA(a, 5)
		c.Write(a, []byte{8, 8, 8, 8, 8, 8, 8, 8}) // discarded, must not panic
		o.deadWin = casRead(0, 7)
		o.deadLose = casRead(5, 7)
		o.dead16 = cas16Read(0, 7)
		// Round trips are fabric time, not outcome: a dead simulated server
		// still bills its verbs, a dead TCP server is never contacted.
		for _, d := range []*doorbell{&o.deadWin, &o.deadLose, &o.dead16} {
			d.counts.RoundTrips, d.counts.OpRoundTrips = 0, 0
		}
		return o
	}

	f := rdma.NewFabric(sim.DefaultParams(), 2, 1)
	simClient := f.NewClient(0)
	simOut := script(simClient, simClient.GrowChunk(1), func() {
		f.Faults.KillMS(1)
	})

	c, err := NewCluster(startServers(t, 2), 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := c.NewTransport(0)
	tcpOut := script(tr, tr.GrowChunk(1), func() {
		c.Faults().KillMS(1)
	})

	if simOut != tcpOut {
		t.Fatalf("dead-verb semantics diverge:\n  sim %+v\n  tcp %+v", simOut, tcpOut)
	}
	// Pin the contract itself, not just the agreement.
	if !tcpOut.readZero {
		t.Error("dead read did not zero-fill")
	}
	if !tcpOut.casZeroOK || tcpOut.casZeroPrev != 0 {
		t.Errorf("dead CAS(old=0) = %d,%v; want fabricated 0,true", tcpOut.casZeroPrev, tcpOut.casZeroOK)
	}
	if tcpOut.casOK || tcpOut.casPrev != 0 {
		t.Errorf("dead CAS(old=9) = %d,%v; want 0,false", tcpOut.casPrev, tcpOut.casOK)
	}
	if !tcpOut.cas16ZeroOK || tcpOut.cas16OK || tcpOut.cas16Prev != 0 {
		t.Errorf("dead CAS16 = (%d, zeroOK=%v, ok=%v); want 0, true, false",
			tcpOut.cas16Prev, tcpOut.cas16ZeroOK, tcpOut.cas16OK)
	}
	if tcpOut.faa != 0 {
		t.Errorf("dead FAA = %d, want 0", tcpOut.faa)
	}
	// The acquire doorbell: one round trip and one 2-command batch carrying
	// an atomic and a read; the READ is served whether or not the swap
	// happened; against dead memory it is the fabricated CAS plus the
	// zero-filled read.
	nine := [8]byte{9, 9, 9, 9, 9, 9, 9, 9}
	one := transport.Metrics{RoundTrips: 1, OpRoundTrips: 1, Atomics: 1, Reads: 1, DoorbellBatches: 1, DoorbellOps: 2}
	lost := one
	lost.CASFailures = 1
	if want := (doorbell{prev: 0, ok: true, buf: nine, counts: one}); tcpOut.liveWin != want || tcpOut.live16 != want {
		t.Errorf("live CASRead / CAS16Read from zero = %+v / %+v, want %+v", tcpOut.liveWin, tcpOut.live16, want)
	}
	if want := (doorbell{prev: 5, ok: false, buf: nine, counts: lost}); tcpOut.liveLose != want {
		t.Errorf("live losing CASRead = %+v, want %+v", tcpOut.liveLose, want)
	}
	one.RoundTrips, one.OpRoundTrips, lost.RoundTrips, lost.OpRoundTrips = 0, 0, 0, 0
	if want := (doorbell{ok: true, counts: one}); tcpOut.deadWin != want || tcpOut.dead16 != want {
		t.Errorf("dead CASRead / CAS16Read from zero = %+v / %+v, want fabricated success and a zeroed buffer %+v", tcpOut.deadWin, tcpOut.dead16, want)
	}
	if want := (doorbell{counts: lost}); tcpOut.deadLose != want {
		t.Errorf("dead CASRead(old=5) = %+v, want %+v", tcpOut.deadLose, want)
	}
}

// TestNewClusterFailureClosesConnections: a bring-up that fails after the
// dial loop (here: memory server 0 already hosts another cluster's
// superblock) must close every connection it dialed — socket, reader and
// writer goroutines — rather than leak them to a server that keeps running.
func TestNewClusterFailureClosesConnections(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	open := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}

	c, err := NewCluster([]string{srv.Addr()}, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := open(); n != 1 {
		t.Fatalf("%d server-side connections after bring-up, want 1 (one mux)", n)
	}

	if _, err := NewCluster([]string{srv.Addr()}, 1, Options{HeartbeatInterval: -1}); err == nil || !strings.Contains(err.Error(), "not fresh") {
		t.Fatalf("second cluster on the same server: err = %v, want \"not fresh\"", err)
	}
	if srv.Accepted() != 2 {
		t.Fatalf("server accepted %d connections, want 2 (the failed attempt dialed)", srv.Accepted())
	}
	deadline := time.Now().Add(5 * time.Second)
	for open() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d server-side connections still open after the failed bring-up, want 1", open())
		}
		time.Sleep(time.Millisecond)
	}
	// The surviving cluster is untouched.
	var buf [8]byte
	c.RawRead(transport.ReadOp{Addr: transport.MakeAddr(0, 64), Buf: buf[:]})
}

// TestLeaseReclaimRealClock exercises lease-expiry lock reclamation on the
// real clock: a client thread acquires a lock and vanishes without
// releasing; a second thread's acquisition must spin out the full lease
// (200ms of wall time) and then steal the word, reporting Reclaimed so the
// caller re-validates the protected object.
func TestLeaseReclaimRealClock(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a real 200ms lease")
	}
	c, err := NewCluster(startServers(t, 1), 2, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.NewLockManager(hocl.Config{Mode: hocl.Baseline()})

	dead := c.NewTransport(1)
	g := m.LockIdx(dead, 0, 3)
	if g.Reclaimed() {
		t.Fatal("first acquisition reclaimed")
	}
	// The holder "crashes": never unlocks, never pings again.

	tr := c.NewTransport(0)
	start := time.Now()
	g2 := m.LockIdx(tr, 0, 3)
	waited := time.Since(start)
	if !g2.Reclaimed() {
		t.Fatal("second acquisition did not report Reclaimed")
	}
	lease := time.Duration(tr.Timing().LeaseNS)
	if waited < lease/2 {
		t.Fatalf("stole after %v, before the %v lease could plausibly expire", waited, lease)
	}
	m.Unlock(tr, g2, nil, false)

	// A third acquisition after a clean release is an ordinary fast one.
	start = time.Now()
	g3 := m.LockIdx(tr, 0, 3)
	if g3.Reclaimed() || time.Since(start) > lease/2 {
		t.Fatalf("post-release acquisition: reclaimed=%v after %v", g3.Reclaimed(), time.Since(start))
	}
	m.Unlock(tr, g3, nil, false)
}

// TestHeartbeatDetectsSIGSTOP pins the failure mode that only a deadline
// can catch: a SIGSTOPped server keeps its sockets open (the kernel ACKs
// writes) but never answers, so death shows up as a heartbeat read timeout,
// not an I/O error. Spawns real shermand processes.
func TestHeartbeatDetectsSIGSTOP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	ls, err := LaunchLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Stop()
	c, err := NewCluster(ls.Endpoints, 1, Options{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := ls.Signal(1, syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// SIGCONT before reaping: Stop's SIGKILL reaps stopped processes too,
	// but resuming keeps the teardown path uniform.
	defer ls.Signal(1, syscall.SIGCONT)

	deadline := time.Now().Add(5 * time.Second)
	for c.MSAlive(1) {
		if time.Now().After(deadline) {
			t.Fatal("membership service never declared the SIGSTOPped server dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !c.MSAlive(0) {
		t.Fatal("healthy server was declared dead")
	}
}
