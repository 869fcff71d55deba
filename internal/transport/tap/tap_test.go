package tap_test

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"sherman/internal/testutil"
	"sherman/internal/transport"
	"sherman/internal/transport/tap"
)

var (
	transportT = reflect.TypeFor[transport.Transport]()
	virtualT   = reflect.TypeFor[transport.VirtualTimer]()
	asyncT     = reflect.TypeFor[transport.AsyncVerbs]()
	parkerT    = reflect.TypeFor[transport.Parker]()
)

// untapped are the methods that move no bytes: they pass through without
// a hook call. Every other method of Transport and of the capability
// interfaces is a verb with a Kind of its name.
var untapped = []string{
	"Now", "Step", "AdvanceTo", "CSID", "Epoch", "Alive", "CheckAlive",
	"NumMS", "MSAlive", "Metrics", "Timing",
	"OnTimeline", "SetClock", "AtomicSvcNS", "ChargeAtomic", "ChargeSpin",
	"Held", "Park", "Hand", "Take",
}

func methods(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// shapes are the interfaces each fabric's client thread implements.
var shapes = map[string][]reflect.Type{
	"sim": {transportT, virtualT},
	"tcp": {transportT, asyncT, parkerT},
}

// TestTapNamesEveryMethod fails when Transport or a capability interface
// gains a method the tap does not name: each shape's method set must be
// exactly the union of its interfaces', and every method of them must be
// either a verb with a Kind or one of the untapped.
func TestTapNamesEveryMethod(t *testing.T) {
	var kinds []string
	for k := tap.Kind(0); k < tap.NumKinds; k++ {
		kinds = append(kinds, k.String())
	}
	seen := map[string]bool{}
	for _, it := range []reflect.Type{transportT, virtualT, asyncT, parkerT} {
		for _, m := range methods(it) {
			seen[m] = true
			if slices.Contains(kinds, m) == slices.Contains(untapped, m) {
				t.Errorf("%s.%s is neither exactly a tap.Kind nor untapped", it, m)
			}
		}
	}
	for _, m := range append(kinds, untapped...) {
		if !seen[m] {
			t.Errorf("the tap names %s, which no interface has", m)
		}
	}

	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		be, _ := fab.New(t, 2, 1, 0)
		inner := be.NewTransport(0)
		x, err := tap.Wrap(inner, func(tap.Call) {})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, it := range shapes[fab.Name] {
			want = append(want, methods(it)...)
		}
		sort.Strings(want)
		if got := methods(reflect.TypeOf(x)); !slices.Equal(got, want) {
			t.Errorf("tapped methods %v, want %v", got, want)
		}
		for _, it := range []reflect.Type{virtualT, asyncT, parkerT} {
			if in, out := reflect.TypeOf(inner).Implements(it), reflect.TypeOf(x).Implements(it); in != out {
				t.Errorf("inner implements %s %v, tapped %v", it, in, out)
			}
		}
	})
}

// TestWrapRefusesUnknownShape: a capability set the tap has no shape for is
// an error, not a panic and not a transport that silently drops one.
func TestWrapRefusesUnknownShape(t *testing.T) {
	for _, c := range []transport.Transport{stub{}, stubAsync{}} {
		if x, err := tap.Wrap(c, func(tap.Call) {}); err == nil {
			t.Errorf("%T wrapped as %T", c, x)
		}
	}
}

// TestHookSeesEveryVerb drives each verb once through a tapped thread on
// both fabrics and checks the one call its hook saw.
func TestHookSeesEveryVerb(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		be, _ := fab.New(t, 2, 1, 0)
		var calls []tap.Call
		c, err := tap.Wrap(be.NewTransport(0), func(x tap.Call) { calls = append(calls, x) })
		if err != nil {
			t.Fatal(err)
		}
		// one runs verb, checks that the hook saw it once as want (the
		// clock and the op slices aside) and returns what the hook saw.
		one := func(verb func(), want tap.Call) tap.Call {
			t.Helper()
			calls = calls[:0]
			verb()
			if len(calls) != 1 {
				t.Fatalf("%v: hook ran %d times, want once", want.Kind, len(calls))
			}
			got := calls[0]
			if got.Start > got.End {
				t.Errorf("%v: start %d after end %d", want.Kind, got.Start, got.End)
			}
			cmp := got
			cmp.Start, cmp.End, cmp.Reads, cmp.Writes = 0, 0, nil, nil
			if !reflect.DeepEqual(cmp, want) {
				t.Errorf("got %+v, want %+v", cmp, want)
			}
			return got
		}
		calls = calls[:0]
		a := transport.MakeAddr(1, c.GrowChunk(1))
		if len(calls) != 1 || calls[0].Kind != tap.GrowChunk || calls[0].Addr != a {
			t.Fatalf("GrowChunk returned %v, hook saw %+v", a, calls)
		}
		buf, data := make([]byte, 64), make([]byte, 16)
		one(func() { c.Read(a, buf) }, tap.Call{Kind: tap.Read, Addr: a, Len: 64})
		reads := []transport.ReadOp{{Addr: a, Buf: buf}, {Addr: a.Add(64), Buf: buf[:8]}}
		got := one(func() { c.ReadMulti(reads) }, tap.Call{Kind: tap.ReadMulti, Addr: a, Len: 72})
		if len(got.Reads) != 2 {
			t.Errorf("ReadMulti reported %d ops, want 2", len(got.Reads))
		}
		one(func() { c.Write(a, data) }, tap.Call{Kind: tap.Write, Addr: a, Len: 16})
		post := []transport.WriteOp{{Addr: a, Data: data}, {Addr: a.Add(64), Data: data[:8]}}
		got = one(func() { c.PostWrites(post...) }, tap.Call{Kind: tap.PostWrites, Addr: a, Len: 24})
		if len(got.Writes) != 2 {
			t.Errorf("PostWrites reported %d ops, want 2", len(got.Writes))
		}
		w := a.Add(128)
		one(func() { c.CAS(w, 0, 1) }, tap.Call{Kind: tap.CAS, Addr: w, Len: 8, Swapped: true})
		one(func() { c.CAS(w, 0, 1) }, tap.Call{Kind: tap.CAS, Addr: w, Len: 8})
		one(func() { c.CAS16(w.Add(8), 0, 1) }, tap.Call{Kind: tap.CAS16, Addr: w.Add(8), Len: 2, Swapped: true})
		one(func() { c.CASRead(w.Add(16), 0, 1, a, buf) }, tap.Call{Kind: tap.CASRead, Addr: a, Lock: w.Add(16), Len: 64, Swapped: true})
		one(func() { c.CAS16Read(w.Add(24), 1, 2, a, buf) }, tap.Call{Kind: tap.CAS16Read, Addr: a, Lock: w.Add(24), Len: 64})
		one(func() { c.FAA(w.Add(32), 1) }, tap.Call{Kind: tap.FAA, Addr: w.Add(32), Len: 8})
		if vt, ok := c.(transport.VirtualTimer); ok {
			one(func() { vt.CASBacklog(w.Add(40), 0, 1, 100) }, tap.Call{Kind: tap.CASBacklog, Addr: w.Add(40), Len: 8, Swapped: true})
			one(func() { vt.CAS16Backlog(w.Add(48), 0, 1, 100) }, tap.Call{Kind: tap.CAS16Backlog, Addr: w.Add(48), Len: 2, Swapped: true})
		}
		if av, ok := c.(transport.AsyncVerbs); ok {
			var p transport.Pending
			one(func() { p = av.ReadAsync(a, buf) }, tap.Call{Kind: tap.ReadAsync, Addr: a, Len: 64})
			one(func() { av.Await(p) }, tap.Call{Kind: tap.Await})
			one(func() { p = av.PostWritesAsync(transport.WriteOp{Addr: a, Data: data}) }, tap.Call{Kind: tap.PostWritesAsync, Addr: a, Len: 16})
			one(func() { av.Await(p) }, tap.Call{Kind: tap.Await})
		}
		calls = calls[:0]
		c.Now()
		c.Metrics()
		if len(calls) != 0 {
			t.Errorf("untapped methods reached the hook: %+v", calls)
		}
	})
}

// BenchmarkTap prices the tap: one 64-byte Read, untapped and tapped with
// an empty hook, on the simulator and over in-process TCP.
func BenchmarkTap(b *testing.B) {
	for _, fab := range testutil.Fabrics() {
		be, _ := fab.New(b, 2, 1, 0)
		inner := be.NewTransport(0)
		a := transport.MakeAddr(1, inner.GrowChunk(1))
		tapped, err := tap.Wrap(inner, func(tap.Call) {})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			c    transport.Transport
		}{{"untapped", inner}, {"tapped", tapped}} {
			b.Run(fab.Name+"/"+c.name, func(b *testing.B) {
				buf := make([]byte, 64)
				b.ReportAllocs()
				for b.Loop() {
					c.c.Read(a, buf)
				}
			})
		}
	}
}

// stub is a bare Transport whose verbs do nothing, and stubAsync adds
// AsyncVerbs without Parker: capability sets no fabric has.
type (
	stub      struct{}
	stubAsync struct{ stub }
)

func (stub) Read(transport.Addr, []byte)                         {}
func (stub) ReadMulti([]transport.ReadOp)                        {}
func (stub) Write(transport.Addr, []byte)                        {}
func (stub) PostWrites(...transport.WriteOp)                     {}
func (stub) CAS(transport.Addr, uint64, uint64) (uint64, bool)   { return 0, false }
func (stub) CAS16(transport.Addr, uint16, uint16) (uint16, bool) { return 0, false }
func (stub) CASRead(transport.Addr, uint64, uint64, transport.Addr, []byte) (uint64, bool) {
	return 0, false
}
func (stub) CAS16Read(transport.Addr, uint16, uint16, transport.Addr, []byte) (uint16, bool) {
	return 0, false
}
func (stub) FAA(transport.Addr, uint64) uint64                       { return 0 }
func (stub) GrowChunk(uint16) uint64                                 { return 0 }
func (stub) Now() int64                                              { return 0 }
func (stub) Step(int64)                                              {}
func (stub) AdvanceTo(int64)                                         {}
func (stub) CSID() uint16                                            { return 0 }
func (stub) Epoch() int64                                            { return 0 }
func (stub) Alive() bool                                             { return true }
func (stub) CheckAlive()                                             {}
func (stub) NumMS() int                                              { return 1 }
func (stub) MSAlive(int) bool                                        { return true }
func (stub) Metrics() *transport.Metrics                             { return nil }
func (stub) Timing() transport.Timing                                { return transport.Timing{} }
func (stubAsync) ReadAsync(transport.Addr, []byte) transport.Pending { return 0 }
func (stubAsync) PostWritesAsync(...transport.WriteOp) transport.Pending {
	return 0
}
func (stubAsync) Await(transport.Pending) {}
