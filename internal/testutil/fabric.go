package testutil

import (
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/deploy"
	"sherman/internal/transport"
	"sherman/internal/transport/tap"
	"sherman/internal/transport/tcp"
)

// Fabric is one entry of the fabric axis. New builds a deployment of numMS
// memory servers and numCS compute servers, replicating every data chunk at
// factor rf (0 = off), and tears it down when the test ends. It returns the
// Backend a tree is built over and a hook that fails memory server ms for
// good through the deployment's fault injector, failover included before it
// returns; server 0 holds the superblock and cannot be killed, nor can a
// dead server.
type Fabric struct {
	Name string
	New  func(tb testing.TB, numMS, numCS, rf int) (be core.Backend, kill func(ms int) error)
}

// TCP is the real network over in-process memory servers with heartbeats
// off, so a server dies only when kill, an armed trigger or a verb's I/O
// error declares it. kill declares the death through the deployment's
// fault injector, then closes the server, listener and connections: what
// KillMemoryServer does before SIGKILLing a launched shermand.
var TCP = Fabric{Name: "tcp", New: func(tb testing.TB, numMS, numCS, rf int) (core.Backend, func(int) error) {
	srvs, eps := ServeTCP(tb, numMS)
	c, err := tcp.NewCluster(eps, numCS, tcp.Options{ReplicationFactor: rf, HeartbeatInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	// A pipelined executor's runner goroutines outlive the test, and a
	// tapped transport of theirs can hold this hook: drop the servers
	// with the deployment, or each such test pins their memory for good.
	tb.Cleanup(func() { srvs = nil })
	return c, func(ms int) error {
		if err := c.KillMS(ms); err != nil {
			return err
		}
		if srvs != nil { // nil once the test has ended and closed them
			srvs[ms].Close()
		}
		return nil
	}
}}

// Sim is the virtual-time simulator, whose kill is the injector's alone.
var Sim = Fabric{Name: "sim", New: func(tb testing.TB, numMS, numCS, rf int) (core.Backend, func(int) error) {
	cl := cluster.New(cluster.Config{NumMS: numMS, NumCS: numCS, ReplicationFactor: rf})
	return cl, cl.KillMS
}}

// Fabrics returns the fabric axis: Sim and TCP.
func Fabrics() []Fabric { return []Fabric{Sim, TCP} }

// Faults returns the fault injector of a deployment a Fabric built: the
// deploy.State both fabrics embed holds it.
func Faults(be core.Backend) *deploy.Faults {
	return be.(interface{ Faults() *deploy.Faults }).Faults()
}

// Tap returns be with its client threads' verbs reported through tap.Wrap:
// a thread of compute server cs is tapped with hook(cs), or left bare when
// that is nil. A transport the tap refuses fails tb and stays bare.
func Tap(tb testing.TB, be core.Backend, hook func(cs int) tap.Hook) core.Backend {
	return &tapped{Backend: be, tb: tb, hook: hook}
}

type tapped struct {
	core.Backend
	tb   testing.TB
	hook func(cs int) tap.Hook
}

func (b *tapped) NewTransport(cs int) transport.Transport {
	inner := b.Backend.NewTransport(cs)
	h := b.hook(cs)
	if h == nil {
		return inner
	}
	c, err := tap.Wrap(inner, h)
	if err != nil {
		b.tb.Errorf("testutil.Tap: %v", err)
		return inner
	}
	return c
}

// RunFabrics runs fn once per fabric, as subtests named after it.
func RunFabrics(t *testing.T, fn func(t *testing.T, fab Fabric)) {
	t.Helper()
	for _, fab := range Fabrics() {
		t.Run(fab.Name, func(t *testing.T) { fn(t, fab) })
	}
}

// ServeTCP starts n in-process memory servers, closed when the test ends,
// and returns them with their endpoints.
func ServeTCP(tb testing.TB, n int) ([]*tcp.Server, []string) {
	tb.Helper()
	srvs, eps := make([]*tcp.Server, n), make([]string, n)
	for i := range srvs {
		s, err := tcp.NewServer("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go s.Serve()
		tb.Cleanup(s.Close)
		srvs[i], eps[i] = s, s.Addr()
	}
	return srvs, eps
}
