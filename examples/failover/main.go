// Failover: crash a compute server mid-workload, watch survivors reclaim
// its locks, recover the tree structure, and bring the server back.
//
// The one-sided design makes the client the unit of failure — no
// memory-server CPU participates in the data path — so everything a dead
// compute server leaves behind lives in the lock and session layers: held
// HOCL locks (freed by lease-expiry reclamation, DESIGN.md §8), half-done
// splits (completed by Tree.Recover), and sessions whose calls now report
// ErrSessionDead.
package main

import (
	"errors"
	"fmt"
	"log"

	"sherman"
)

func main() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  2,
		ComputeServers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}
	const n = 100_000
	kvs := make([]sherman.KV, n)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	// A client on CS 1 acknowledges some writes...
	doomed, err := tree.SessionAt(1)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		if err := doomed.PutE(k, k*1000); err != nil {
			log.Fatal(err)
		}
	}

	// ...then its compute server dies in the middle of the next write: the
	// fourth fabric operation of a warm put is the commit doorbell, so the
	// crash lands with the leaf's lock held and the write un-applied.
	if err := cluster.ScheduleCrash(1, 4); err != nil {
		log.Fatal(err)
	}
	if r := doomed.Submit(sherman.PutOp(50, 1)).Wait(); errors.Is(r.Err, sherman.ErrSessionDead) {
		fmt.Println("dead session reports:", r.Err)
	}

	// Survivors keep serving, and the acked writes are durable. A write
	// that needs a lock the dead server held waits out the liveness lease
	// and reclaims it.
	surv, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	if v, ok, _ := surv.GetE(50); ok {
		fmt.Printf("acked write survived: key 50 = %d\n", v)
	}
	if err := surv.PutE(50, 42); err != nil { // same leaf range the dead client wrote
		log.Fatal(err)
	}
	ls := tree.LockStats()
	fmt.Printf("lease expiries: %d, reclaims: %d\n", ls.LeaseExpiries, ls.Reclaims)
	if ls.Reclaims == 0 {
		// Keeps the example honest: if the put's verb count ever shifts,
		// the scheduled crash stops landing mid-write and this demo no
		// longer shows what it claims to.
		log.Fatal("crash did not land with the lock held; adjust ScheduleCrash's verb index")
	}

	// Complete any splits the dead client left half-done, then validate.
	rs, err := tree.Recover(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d split repairs in %.1f us virtual\n",
		rs.SplitRepairs, float64(rs.VirtualNS)/1000)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tree validates after recovery")

	// Restart the server: old sessions stay dead, new ones work.
	if err := cluster.RestartComputeServer(1); err != nil {
		log.Fatal(err)
	}
	fresh, err := tree.SessionAt(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := fresh.PutE(7, 777); err != nil {
		log.Fatal(err)
	}
	if v, ok, _ := fresh.GetE(7); ok {
		fmt.Printf("restarted server serving again: key 7 = %d\n", v)
	}
}
