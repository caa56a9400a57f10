package main

import (
	"errors"
	"fmt"

	"baton/internal/core"
	"baton/internal/p2p"
	"baton/internal/workload/driver"
)

// scenario is one -mode run invocation: the cluster to build (or, with
// seedAddr, the running coordinator to attach to), the workload driven at
// it, and what happens around the run.
type scenario struct {
	cluster  driver.ClusterSpec
	workload driver.Config
	// seedAddr attaches to a running batond coordinator instead of building
	// a cluster. An attached client is not a coordinator, so the audit is
	// skipped.
	seedAddr string
	// compare runs the scenario twice on fresh clusters, balancer off then
	// on, and fails unless the final imbalance ratio drops.
	compare    bool
	metricsOut string
}

// runResult is what the -compare gate reads from one run.
type runResult struct {
	opsPerSec, imbalance float64
	balanced             int64
}

// runScenario is the batonsim run mode: it builds the cluster, drives the
// closed-loop workload at it (churn, faults, skew and the balancer all come
// from the workload config) and ends with the audit. With compare it runs
// balancer-off then balancer-on and returns an error unless the balancer cut
// the imbalance ratio — the CI gate for the load-management layer.
func runScenario(s scenario) error {
	if !s.compare {
		_, err := runOnce(s)
		return err
	}
	fmt.Println("=== balancer OFF ===")
	s.workload.AutoBalance = false
	off, err := runOnce(s)
	if err != nil {
		return err
	}
	fmt.Println("\n=== balancer ON ===")
	s.workload.AutoBalance = true
	on, err := runOnce(s)
	if err != nil {
		return err
	}
	fmt.Printf("\nimbalance ratio: %.2f (off) vs %.2f (on)  |  ops/sec: %.0f (off) vs %.0f (on)  |  balance actions: %d\n",
		off.imbalance, on.imbalance, off.opsPerSec, on.opsPerSec, on.balanced)
	if on.imbalance >= off.imbalance {
		return fmt.Errorf("compare gate FAILED: auto-balance imbalance %.2f not below balancer-off %.2f", on.imbalance, off.imbalance)
	}
	fmt.Println("compare gate passed: the auto-balancer cut the imbalance ratio")
	return nil
}

// runOnce runs the scenario once on a fresh cluster. With -compare both runs
// write the -metricsout file; it ends up describing the balancer-on run, the
// one the gate is about.
func runOnce(s scenario) (runResult, error) {
	var (
		c    *p2p.Cluster
		stop func()
		err  error
	)
	if s.seedAddr != "" {
		fmt.Printf("attaching to coordinator at %s, preloading %d items ...\n", s.seedAddr, s.cluster.Items)
		c, s.workload.Keys, err = driver.AttachCluster(s.seedAddr, s.cluster.Items, s.cluster.Seed)
		stop = func() { c.Stop() }
	} else {
		data := "uniform"
		if s.cluster.ZipfTheta > 0 {
			data = fmt.Sprintf("Zipf(%.2f)", s.cluster.ZipfTheta)
		}
		fmt.Printf("building live cluster: %d peers, %d %s items, fanout %d, transport %s ...\n",
			s.cluster.Peers, s.cluster.Items, data, max(2, s.cluster.Fanout), s.cluster.Transport)
		c, s.workload.Keys, stop, err = driver.BuildCluster(s.cluster)
	}
	if err != nil {
		return runResult{}, err
	}
	defer stop()
	startSize := c.Size()

	rep := driver.Run(c, s.workload)
	if s.workload.AutoBalance {
		// Quiesce the balancer before auditing: a short run can end between
		// ticker fires.
		if _, err := c.BalanceUntilStable(p2p.AutoBalanceConfig{}, 8*c.Size()); err != nil {
			return runResult{}, err
		}
	}
	w := s.workload
	plan := w.Plan
	if plan == "" {
		plan = driver.PlanParallel
	}
	fmt.Printf("run (route %s, range plan %s, kills/recovers/joins/departs %d/%d/%d/%d requested, autobalance %v)\n",
		w.Route, plan, w.KillPeers, w.RecoverPeers, w.JoinPeers, w.DepartPeers, w.AutoBalance)
	fmt.Print(rep.String())
	fmt.Printf("cluster size: %d -> %d\n", startSize, c.Size())
	fmt.Printf("peer-to-peer messages delivered: %d\n", c.Messages())
	if w.Route == p2p.RouteDirect {
		fmt.Printf("stale direct routes (fell back to overlay): %d\n", c.StaleRoutes())
	}

	res := runResult{opsPerSec: rep.OpsPerSec}
	if s.seedAddr != "" {
		fmt.Println("audit skipped: an attached client is not the coordinator, and only the coordinator can snapshot the overlay")
	} else {
		if res.imbalance, err = audit(c); err != nil {
			return res, err
		}
		res.balanced = c.BalanceEvents()
	}
	return res, writeObsDump(c, s.metricsOut)
}

// audit checks a quiesced cluster after a run. It repairs every peer still
// dead, so each run also proves ErrOwnerDown is transient, then checks the
// structural invariant suite over the snapshot, syncs the replicas and
// checks the replication invariant (every peer's items exactly mirrored at
// its holder). It prints and returns the max/average load-imbalance ratio.
func audit(c *p2p.Cluster) (float64, error) {
	repaired := 0
	for _, id := range c.PeerIDs() {
		if c.Alive(id) {
			continue
		}
		if _, err := c.Recover(id); err != nil && !errors.Is(err, p2p.ErrReplicaLost) {
			return 0, fmt.Errorf("final repair of peer %d: %w", id, err)
		}
		repaired++
	}
	if repaired > 0 {
		fmt.Printf("audit repaired %d still-dead peer(s)\n", repaired)
	}
	snaps, err := c.Snapshot()
	if err != nil {
		return 0, err
	}
	if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
		return 0, fmt.Errorf("structural invariants FAILED: %w", err)
	}
	if err := c.SyncReplicas(); err != nil {
		return 0, err
	}
	replicas, err := c.Replicas()
	if err != nil {
		return 0, err
	}
	if err := core.VerifyReplication(snaps, replicas); err != nil {
		return 0, fmt.Errorf("replication invariants FAILED: %w", err)
	}
	imbalance, err := c.ImbalanceRatio()
	if err != nil {
		return 0, err
	}
	items := 0
	for _, ps := range snaps {
		items += len(ps.Items)
	}
	fmt.Printf("audit: %d peers, %d items, structural + replication invariants OK\n", len(snaps), items)
	fmt.Printf("imbalance ratio (max/avg stored items): %.2f  (balance actions: %d)\n", imbalance, c.BalanceEvents())
	return imbalance, nil
}
