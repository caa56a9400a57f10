// Crash recovery: kill a peer abruptly — its process, data and held
// replicas are gone — watch its key range answer ErrOwnerDown, then repair
// it and watch every key come back with its pre-crash value, restored from
// the replica kept at the adjacent peer.
//
// The walkthrough has three acts:
//
//  1. Explicit repair: crash one peer, observe the transient ErrOwnerDown
//     window, run Recover, and check every key the dead peer owned reads
//     back exactly as written.
//  2. The background repairer: with StartAutoRecover on, a crash heals
//     itself — the first requests to notice the dead owner queue the
//     repair, and traffic succeeds again moments later with no operator
//     in the loop.
//  3. The audit: quiesce, snapshot, and verify both invariant suites —
//     the structural one (balanced shape, gap-free ranges, symmetric
//     links) and the replication one (every peer's items exactly mirrored
//     at its holder).
//
// Run with:
//
//	go run ./examples/crashrecovery
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"baton"
	"baton/internal/workload/driver"
)

func main() {
	cluster, keys, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: 48, Items: 8_000, Seed: 11})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer stop()
	fmt.Printf("live cluster: %d peer goroutines, %d items, replication on\n\n", cluster.Size(), len(keys))

	// --- Act 1: crash, observe the outage, repair -------------------------
	snaps, err := cluster.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	victim := snaps[0]
	for _, ps := range snaps[1:] {
		if len(ps.Items) > len(victim.Items) {
			victim = ps
		}
	}
	fmt.Printf("act 1: crashing peer %d (%d items in range [%d, %d))\n",
		victim.ID, len(victim.Items), victim.Range.Lower, victim.Range.Upper)
	if err := cluster.Kill(victim.ID); err != nil {
		log.Fatalf("kill: %v", err)
	}

	via := baton.PeerID(0)
	for _, id := range cluster.PeerIDs() {
		if cluster.Alive(id) {
			via = id
			break
		}
	}
	probe := victim.Items[0].Key
	if _, _, _, err := cluster.Get(via, probe); errors.Is(err, baton.ErrOwnerDown) {
		fmt.Printf("  get %d while down: %v (the transient window)\n", probe, err)
	}

	restored, err := cluster.Recover(victim.ID)
	if err != nil {
		log.Fatalf("recover: %v", err)
	}
	fmt.Printf("  recovered: %d items restored from the replica\n", restored)
	for _, it := range victim.Items {
		v, found, _, err := cluster.Get(via, it.Key)
		if err != nil || !found || string(v) != string(it.Value) {
			log.Fatalf("key %d after recovery: found=%v err=%v", it.Key, found, err)
		}
	}
	fmt.Printf("  all %d keys readable again with their pre-crash values\n\n", len(victim.Items))

	// --- Act 2: the background repairer ----------------------------------
	cluster.StartAutoRecover()
	snaps, err = cluster.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	victim = snaps[len(snaps)/2]
	fmt.Printf("act 2: auto-recover on; crashing peer %d (%d items)\n", victim.ID, len(victim.Items))
	if err := cluster.Kill(victim.ID); err != nil {
		log.Fatalf("kill: %v", err)
	}
	probe = victim.Range.Lower
	start := time.Now()
	for {
		if _, _, _, err := cluster.Get(via, probe); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("  range healed by the background repairer in %v — no Recover call\n\n", time.Since(start).Round(time.Millisecond))

	// --- Act 3: the audit -------------------------------------------------
	fmt.Println("act 3: quiesce and audit")
	if err := cluster.SyncReplicas(); err != nil {
		log.Fatalf("sync replicas: %v", err)
	}
	snaps, err = cluster.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	if err := baton.VerifySnapshot(cluster.Domain(), snaps); err != nil {
		log.Fatalf("structural invariants: %v", err)
	}
	replicas, err := cluster.Replicas()
	if err != nil {
		log.Fatalf("replicas: %v", err)
	}
	if err := baton.VerifyReplication(snaps, replicas); err != nil {
		log.Fatalf("replication invariants: %v", err)
	}
	total := 0
	for _, ps := range snaps {
		total += len(ps.Items)
	}
	fmt.Printf("  %d peers, %d items: structural + replication invariants OK\n", len(snaps), total)
}
