package testutil

import (
	"sync/atomic"

	"sherman/internal/transport/tap"
)

// Verb is a set of verb kinds KillAfter counts.
type Verb uint32

const (
	VerbRead    Verb = 1 << iota // Read
	VerbCASRead                  // CASRead and CAS16Read, the acquire doorbell
	VerbPost                     // PostWrites and PostWritesAsync, a doorbell batch of writes
)

var verbOf = [tap.NumKinds]Verb{
	tap.Read:            VerbRead,
	tap.CASRead:         VerbCASRead,
	tap.CAS16Read:       VerbCASRead,
	tap.PostWrites:      VerbPost,
	tap.PostWritesAsync: VerbPost,
}

// KillAfter is a tap hook (Tap) that places a memory-server death between
// two verbs of one operation: once armed, the n-th verb of the armed kinds
// that any tapped client thread issues kills the server that verb
// addressed (unless it is server 0) as soon as the verb returns; a post
// addresses its first op's server. Armed before a warm-cache write, the
// first read is the leaf's validating read under the lock: the acquire
// doorbell (CAS16Read or CASRead) on both fabrics, or a Read after the bare
// lock CAS where combining is off. The first post of a replicated write is
// its mirror, which precedes the primary commit.
type KillAfter struct {
	Kill  func(ms int) error // the fabric's kill hook (Fabric.New)
	kinds atomic.Uint32
	left  atomic.Int64
}

// Arm counts verbs of kinds from now on and kills at the n-th (n >= 1).
func (k *KillAfter) Arm(kinds Verb, n int) {
	k.kinds.Store(uint32(kinds))
	k.left.Store(int64(n))
}

// Hook is KillAfter's hook for every compute server's threads.
func (k *KillAfter) Hook(cs int) tap.Hook { return k.after }

func (k *KillAfter) after(c tap.Call) {
	if Verb(k.kinds.Load())&verbOf[c.Kind] != 0 && k.left.Add(-1) == 0 && c.Addr.MS() != 0 {
		k.Kill(int(c.Addr.MS()))
	}
}
