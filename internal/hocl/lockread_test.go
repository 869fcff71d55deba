package hocl_test

import (
	"bytes"
	"runtime"
	"testing"

	"sherman/internal/hocl"
	"sherman/internal/testutil"
	"sherman/internal/transport"
)

// TestLockReadNeverTrustsALosingRead runs the remote manager's LockRead over
// two in-process memory servers. Compute server A holds a node's lock; B's
// LockRead goes out and its attempts — each of the first DoorbellAttempts
// carrying the READ — lose, fetching the old image. A then writes a new
// image and releases in one doorbell. B must come back holding the lock; if
// it won within DoorbellAttempts attempts, with the node read by its winning
// attempt: A's new image, never what a losing attempt fetched. Every
// carrying attempt but a winning one is counted wasted. An uncontended
// LockRead afterwards carries the node in one round trip; with the doorbell
// off nothing is carried.
func TestLockReadNeverTrustsALosingRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode hocl.Mode
	}{
		{"sherman", hocl.Sherman()},   // on-chip words: CAS16Read
		{"baseline", hocl.Baseline()}, // host-memory words: CASRead
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testutil.TCP.New(t, 2, 2, 0)
			m := c.NewLockManager(hocl.Config{Mode: tc.mode})
			a, b := c.NewTransport(0), c.NewTransport(1)

			const size = 1024
			node := transport.MakeAddr(1, a.GrowChunk(1)+4096)
			oldImg, newImg := bytes.Repeat([]byte{0xAA}, size), bytes.Repeat([]byte{0xBB}, size)
			a.Write(node, oldImg)

			ga := m.Lock(a, node)
			type result struct {
				g    hocl.Guard
				read bool
				buf  []byte
			}
			done := make(chan result)
			go func() {
				buf := make([]byte, size)
				g, read := m.LockRead(b, node, buf, true)
				done <- result{g, read, buf}
			}()
			for m.Stats.AcquireReadsWasted.Load() == 0 {
				runtime.Gosched() // B's first attempt has not lost yet
			}
			m.Unlock(a, ga, []transport.WriteOp{{Addr: node, Data: newImg}}, true)
			r := <-done

			retries := m.Stats.GlobalRetries.Load()
			if retries == 0 {
				t.Error("GlobalRetries = 0: B never retried")
			}
			// Attempt i (0-based) carries the READ when i < DoorbellAttempts;
			// B's winning attempt is number retries.
			wantRead := retries < hocl.DoorbellAttempts
			wantCarried, wantWasted := min(retries+1, hocl.DoorbellAttempts), min(retries, hocl.DoorbellAttempts)
			if carried, wasted := m.Stats.AcquireReads.Load(), m.Stats.AcquireReadsWasted.Load(); carried != wantCarried || wasted != wantWasted {
				t.Errorf("AcquireReads/Wasted = %d/%d after %d retries, want %d/%d", carried, wasted, retries, wantCarried, wantWasted)
			}
			if r.read != wantRead {
				t.Errorf("contended LockRead won at attempt %d and reported read = %v, want %v", retries, r.read, wantRead)
			}
			if r.read && !bytes.Equal(r.buf, newImg) {
				t.Fatalf("LockRead reported the node read but handed back image %#x, want A's %#x", r.buf[0], newImg[0])
			}
			base := m.Stats.AcquireReads.Load()
			// B really holds the lock, over A's write-back.
			got := make([]byte, size)
			b.Read(node, got)
			if !bytes.Equal(got, newImg) {
				t.Fatalf("node under B's lock = %#x.., want A's write-back", got[0])
			}
			m.Unlock(b, r.g, nil, true)

			// Uncontended: the winning first attempt carries the node.
			buf := make([]byte, size)
			before := a.Metrics().RoundTrips
			g, read := m.LockRead(a, node, buf, true)
			if !read || !bytes.Equal(buf, newImg) {
				t.Fatalf("uncontended LockRead: read = %v, image %#x; want the node carried", read, buf[0])
			}
			if rt := a.Metrics().RoundTrips - before; rt != 1 {
				t.Errorf("uncontended LockRead took %d round trips, want 1", rt)
			}
			m.Unlock(a, g, nil, true)
			if carried := m.Stats.AcquireReads.Load(); carried != base+1 {
				t.Errorf("AcquireReads = %d after an uncontended LockRead, want %d", carried, base+1)
			}

			// Doorbell off: a bare CAS, nothing carried, nothing counted.
			g, read = m.LockRead(a, node, buf, false)
			if read || m.Stats.AcquireReads.Load() != base+1 {
				t.Errorf("LockRead without the doorbell: read = %v, AcquireReads = %d", read, m.Stats.AcquireReads.Load())
			}
			m.Unlock(a, g, nil, false)
		})
	}
}
