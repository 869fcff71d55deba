package testutil

import (
	"sync/atomic"

	"sherman/internal/core"
	"sherman/internal/transport"
)

// Verb is a set of verb kinds KillAfter counts.
type Verb uint32

const (
	VerbRead    Verb = 1 << iota // Read
	VerbCASRead                  // CASRead and CAS16Read, the acquire doorbell
)

// KillAfter decorates a deployment so a test can place a memory-server
// death between two verbs of one operation: once armed, the n-th verb of
// the armed kinds that any of its client threads issues kills the server
// that verb read from (unless it is server 0) as soon as the verb returns.
// Armed before a warm-cache write, the first read is the leaf's validating
// read under the lock: a Read on the simulator's CAS-then-READ path, the
// acquire doorbell over TCP.
type KillAfter struct {
	core.Backend
	Kill  func(ms int) error // the fabric's kill hook (Fabric.New)
	kinds atomic.Uint32
	left  atomic.Int64
}

// Arm counts verbs of kinds from now on and kills at the n-th (n >= 1).
func (k *KillAfter) Arm(kinds Verb, n int) {
	k.kinds.Store(uint32(kinds))
	k.left.Store(int64(n))
}

func (k *KillAfter) after(v Verb, a transport.Addr) {
	if Verb(k.kinds.Load())&v != 0 && k.left.Add(-1) == 0 && a.MS() != 0 {
		k.Kill(int(a.MS()))
	}
}

type (
	killTransport struct {
		transport.Transport
		k *KillAfter
	}
	killSim struct {
		*killTransport
		transport.VirtualTimer
	}
	killTCP struct {
		*killTransport
		transport.AsyncVerbs
		transport.Parker
	}
)

// NewTransport decorates the thread's verbs and keeps its fabric's
// capability interfaces: VirtualTimer on the simulator, AsyncVerbs and
// Parker over TCP.
func (k *KillAfter) NewTransport(cs int) transport.Transport {
	inner := k.Backend.NewTransport(cs)
	x := &killTransport{inner, k}
	if vt, ok := inner.(transport.VirtualTimer); ok {
		return killSim{x, vt}
	}
	return killTCP{x, inner.(transport.AsyncVerbs), inner.(transport.Parker)}
}

func (x *killTransport) Read(a transport.Addr, buf []byte) {
	x.Transport.Read(a, buf)
	x.k.after(VerbRead, a)
}

func (x *killTransport) CASRead(lock transport.Addr, old, new uint64, a transport.Addr, buf []byte) (uint64, bool) {
	v, ok := x.Transport.CASRead(lock, old, new, a, buf)
	x.k.after(VerbCASRead, a)
	return v, ok
}

func (x *killTransport) CAS16Read(lock transport.Addr, old, new uint16, a transport.Addr, buf []byte) (uint16, bool) {
	v, ok := x.Transport.CAS16Read(lock, old, new, a, buf)
	x.k.after(VerbCASRead, a)
	return v, ok
}
