package driver

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/workload"
)

// driverCluster builds a loaded live cluster for driver tests.
func driverCluster(t *testing.T, peers, items int, seed int64) (*p2p.Cluster, []keyspace.Key) {
	t.Helper()
	c, keys, stop, err := BuildCluster(ClusterSpec{Peers: peers, Items: items, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return c, keys
}

func TestDriverMixedWorkload(t *testing.T) {
	c, keys := driverCluster(t, 60, 600, 1)
	rep := Run(c, Config{
		Clients:          8,
		Ops:              2000,
		GetFraction:      0.6,
		PutFraction:      0.2,
		DeleteFraction:   0.1,
		RangeFraction:    0.1,
		RangeSelectivity: 0.02,
		Keys:             keys,
		Seed:             2,
	})
	if rep.Ops == 0 || rep.Ops > 2000 {
		t.Fatalf("ops = %d, want in (0, 2000]", rep.Ops)
	}
	if rep.Errors != 0 {
		t.Fatalf("healthy cluster produced %d errors", rep.Errors)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatalf("throughput = %f", rep.OpsPerSec)
	}
	for _, op := range []Op{OpGet, OpPut, OpDelete, OpRange} {
		if rep.Latency[op].Count() == 0 {
			t.Fatalf("no %s operations recorded", op)
		}
	}
	all := rep.Latency[OpAll]
	if all.Percentile(0.5) > all.Percentile(0.99) {
		t.Fatal("p50 above p99")
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
}

func TestDriverWithChurn(t *testing.T) {
	c, keys := driverCluster(t, 100, 500, 3)
	done := make(chan Report, 1)
	go func() {
		done <- Run(c, Config{
			Clients:       12,
			Ops:           3000,
			GetFraction:   0.5,
			PutFraction:   0.3,
			RangeFraction: 0.2,
			Keys:          keys,
			KillPeers:     15,
			Seed:          4,
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("driver hung under churn")
	}
	if rep.Killed == 0 {
		t.Fatal("churn configured but no peer was killed")
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed under churn")
	}
	// Errors are expected once peers die; the cluster as a whole must keep
	// answering (the run completed, which the timeout above asserts).
}

// TestDriverFaultChurn runs matched kill/recover rates under load: crashes
// open ErrOwnerDown windows, repairs close them, and by the end every dead
// peer that a recover event found has been repaired — the counters must
// report both sides, and the quiesced cluster must pass the structural
// audit.
func TestDriverFaultChurn(t *testing.T) {
	c, keys := driverCluster(t, 60, 800, 23)
	done := make(chan Report, 1)
	go func() {
		done <- Run(c, Config{
			Clients:       10,
			Ops:           4000,
			GetFraction:   0.6,
			PutFraction:   0.3,
			RangeFraction: 0.1,
			Keys:          keys,
			KillPeers:     8,
			RecoverPeers:  8,
			Seed:          24,
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("driver hung under fault churn")
	}
	if rep.Killed == 0 {
		t.Fatal("fault churn configured but no peer was killed")
	}
	if rep.Recovered == 0 {
		t.Fatalf("%d peers killed but none recovered", rep.Killed)
	}
	// Repair any peer the interleaving left dead, then audit. A lost
	// replica is tolerated here: with several concurrent crashes a peer and
	// its holder can be down at once, which single-copy replication does
	// not protect (the storm test in internal/p2p pins down the guarantee).
	for _, id := range c.PeerIDs() {
		if !c.Alive(id) {
			if _, err := c.Recover(id); err != nil && !errors.Is(err, p2p.ErrReplicaLost) {
				t.Fatalf("final repair of %d: %v", id, err)
			}
		}
	}
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
		t.Fatalf("post-fault-churn invariants: %v", err)
	}
}

// TestDriverAutoRecover: with the background repairer enabled, kills alone
// heal without explicit recover events.
func TestDriverAutoRecover(t *testing.T) {
	c, keys := driverCluster(t, 40, 400, 29)
	done := make(chan Report, 1)
	go func() {
		done <- Run(c, Config{
			Clients:     8,
			Ops:         4000,
			GetFraction: 0.7,
			PutFraction: 0.3,
			Keys:        keys,
			KillPeers:   5,
			AutoRecover: true,
			Seed:        30,
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("driver hung with auto-recover")
	}
	if rep.Killed == 0 {
		t.Fatal("no peer was killed")
	}
	// The repairer is asynchronous; give the last observation time to land,
	// then every killed peer must have been repaired out of the membership.
	deadline := time.Now().Add(20 * time.Second)
	for {
		dead := 0
		for _, id := range c.PeerIDs() {
			if !c.Alive(id) {
				dead++
				// Nudge the repairer: an observation is what queues repair.
				c.Get(id, keys[0])
			}
		}
		if dead == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d peers still dead %s after the run with auto-recover on", dead, "20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDriverSteadyChurn runs matched join/depart rates under load: the
// cluster size must stay within ±10% of the start, the per-event counters
// must report the mix, and the quiesced structure must still satisfy the
// simulator's invariants.
func TestDriverSteadyChurn(t *testing.T) {
	c, keys := driverCluster(t, 50, 500, 13)
	start := c.Size()
	done := make(chan Report, 1)
	go func() {
		done <- Run(c, Config{
			Clients:       8,
			Ops:           4000,
			GetFraction:   0.5,
			PutFraction:   0.3,
			RangeFraction: 0.2,
			Keys:          keys,
			JoinPeers:     12,
			DepartPeers:   12,
			Seed:          14,
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("driver hung under steady churn")
	}
	if rep.Joined == 0 || rep.Departed == 0 {
		t.Fatalf("steady churn executed joined=%d departed=%d, want both > 0", rep.Joined, rep.Departed)
	}
	end := c.Size()
	if lo, hi := start*9/10, start*11/10; end < lo || end > hi {
		t.Fatalf("cluster size drifted from %d to %d under matched churn (want within ±10%%)", start, end)
	}
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySnapshot(c.Domain(), snaps); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
	// No graceful event loses data: every pre-loaded key stays readable.
	via := c.PeerIDs()[0]
	for _, k := range keys[:100] {
		if _, found, _, err := c.Get(via, k); err != nil || !found {
			t.Fatalf("key %d unreadable after steady churn: found=%v err=%v", k, found, err)
		}
	}
}

// TestDriverChurnSparesLastPeer is the regression test for the scheduler
// edge case where KillPeers >= cluster size killed the final peer and the
// run degenerated to 100% errors: the cap must always leave a survivor.
func TestDriverChurnSparesLastPeer(t *testing.T) {
	c, keys := driverCluster(t, 3, 50, 15)
	done := make(chan Report, 1)
	go func() {
		done <- Run(c, Config{
			Clients:     4,
			Ops:         2000,
			GetFraction: 1,
			Keys:        keys,
			KillPeers:   10, // far more than the cluster holds
			Seed:        16,
		})
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("driver hung when churn exceeded cluster size")
	}
	if rep.Killed >= 3 {
		t.Fatalf("killed %d of 3 peers; the cap must spare one survivor", rep.Killed)
	}
	alive := 0
	for _, id := range c.PeerIDs() {
		if c.Alive(id) {
			alive++
		}
	}
	if alive < 1 {
		t.Fatal("no peer survived the churn run")
	}
	// The surviving peer keeps serving its own share of the key space
	// (keys owned by killed peers legitimately answer ErrOwnerDown).
	snaps, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range snaps {
		if !c.Alive(ps.ID) {
			continue
		}
		k := ps.Range.Lower
		if _, err := c.Put(ps.ID, k, []byte("post-churn")); err != nil {
			t.Fatalf("survivor %d cannot serve its own range: %v", ps.ID, err)
		}
		if _, found, _, err := c.Get(ps.ID, k); err != nil || !found {
			t.Fatalf("survivor %d lost its own write: found=%v err=%v", ps.ID, found, err)
		}
		break
	}
}

func TestDriverBulkAndSerialRange(t *testing.T) {
	c, keys := driverCluster(t, 40, 200, 5)
	rep := Run(c, Config{
		Clients:       4,
		Ops:           800,
		PutFraction:   0.5,
		RangeFraction: 0.5,
		BulkSize:      16,
		Plan:          PlanSerial,
		Keys:          keys,
		Seed:          6,
	})
	if rep.Latency[OpBulkPut].Count() == 0 {
		t.Fatal("BulkSize set but no bulk puts recorded")
	}
	if rep.Latency[OpPut].Count() != 0 {
		t.Fatal("BulkSize set but singleton puts recorded")
	}
	if rep.Latency[OpRange].Count() == 0 {
		t.Fatal("no range queries recorded")
	}
	if rep.Errors != 0 {
		t.Fatalf("healthy cluster produced %d errors", rep.Errors)
	}
}

func TestDriverDurationCap(t *testing.T) {
	c, keys := driverCluster(t, 20, 100, 7)
	start := time.Now()
	rep := Run(c, Config{
		Clients:  4,
		Duration: 50 * time.Millisecond,
		Keys:     keys,
		Seed:     8,
	})
	if rep.Ops == 0 {
		t.Fatal("no operations in a timed run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed run took %v", elapsed)
	}
}

func TestDriverFullDomainSelectivity(t *testing.T) {
	c, keys := driverCluster(t, 20, 100, 9)
	// Selectivity >= 1 must clamp to whole-domain scans, not panic.
	rep := Run(c, Config{
		Clients:          2,
		Ops:              40,
		RangeFraction:    1,
		RangeSelectivity: 5,
		Keys:             keys,
		Seed:             10,
	})
	if rep.Errors != 0 {
		t.Fatalf("full-domain ranges errored %d times", rep.Errors)
	}
	if rep.Latency[OpRange].Count() == 0 {
		t.Fatal("no range queries recorded")
	}
}

// TestDriverZipfSkewsLoad: with Distribution=Zipf the generated write
// stream piles items onto a few peers — the skewed-workload scenario — and
// the uniform stream does not.
func TestDriverZipfSkewsLoad(t *testing.T) {
	ratioAfter := func(dist workload.Distribution) float64 {
		c, _ := driverCluster(t, 24, 0, 13)
		rep := Run(c, Config{
			Clients:      4,
			Ops:          3000,
			PutFraction:  1,
			Distribution: dist,
			ZipfTheta:    1.0,
			Seed:         14,
		})
		if rep.Errors != 0 {
			t.Fatalf("%s run errored %d times", dist, rep.Errors)
		}
		r, err := c.ImbalanceRatio()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	uniform := ratioAfter(workload.Uniform)
	zipf := ratioAfter(workload.Zipf)
	t.Logf("imbalance after uniform %.2f, after zipf %.2f", uniform, zipf)
	if zipf < 2*uniform {
		t.Fatalf("zipf writes should skew the stored load: uniform ratio %.2f, zipf ratio %.2f", uniform, zipf)
	}
}

// TestDriverAutoBalance: the AutoBalance knob starts the cluster's
// background balancer, the report tallies its actions, and the run ends
// with a visibly lower imbalance than the balancer-off twin.
func TestDriverAutoBalance(t *testing.T) {
	run := func(balance bool) (Report, int64, float64) {
		c, _, stop, err := BuildCluster(ClusterSpec{Peers: 24, Items: 3000, Seed: 15, ZipfTheta: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		rep := Run(c, Config{
			Clients:      4,
			Ops:          2000,
			GetFraction:  0.6,
			PutFraction:  0.4,
			Distribution: workload.Zipf,
			ZipfTheta:    1.0,
			AutoBalance:  balance,
			Seed:         16,
		})
		// Quiesce the balancer's remaining work so the comparison is not a
		// race against the ticker (a short run can end between ticks; the
		// report only tallies actions that landed inside the run).
		if balance {
			if _, err := c.BalanceUntilStable(p2p.AutoBalanceConfig{}, 200); err != nil {
				t.Fatal(err)
			}
		}
		r, err := c.ImbalanceRatio()
		if err != nil {
			t.Fatal(err)
		}
		return rep, c.BalanceEvents(), r
	}
	repOff, eventsOff, off := run(false)
	repOn, eventsOn, on := run(true)
	t.Logf("imbalance off %.2f (events %d), on %.2f (events %d, in-run %d)", off, eventsOff, on, eventsOn, repOn.Rebalanced)
	if repOff.Rebalanced != 0 || eventsOff != 0 {
		t.Fatalf("balancer-off run rebalanced (%d in-run, %d events)", repOff.Rebalanced, eventsOff)
	}
	if eventsOn == 0 {
		t.Fatal("balancer-on run performed no balancing actions on a skewed cluster")
	}
	if repOn.Rebalanced < 0 || int64(repOn.Rebalanced) > eventsOn {
		t.Fatalf("in-run rebalance tally %d outside [0, %d]", repOn.Rebalanced, eventsOn)
	}
	if on >= off {
		t.Fatalf("auto-balance did not reduce the imbalance: off %.2f, on %.2f", off, on)
	}
}

func TestDriverBulkOpsAccounting(t *testing.T) {
	c, _ := driverCluster(t, 20, 0, 11)
	const ops, bulkSize = 1000, 64
	rep := Run(c, Config{
		Clients:     4,
		Ops:         ops,
		PutFraction: 1,
		BulkSize:    bulkSize,
		Seed:        12,
	})
	// Every put roll lands in a batch, and trailing partial batches are
	// flushed on exit, so the reported op count must be (close to) the
	// budget — not the number of flushes.
	if rep.Ops < ops-4*bulkSize || rep.Ops > ops {
		t.Fatalf("ops = %d, want ≈%d (batch flushes must count per key)", rep.Ops, ops)
	}
	flushes := rep.Latency[OpBulkPut].Count()
	if flushes == 0 || int64(flushes) >= rep.Ops {
		t.Fatalf("flushes = %d for %d ops", flushes, rep.Ops)
	}
	if rep.Errors != 0 {
		t.Fatalf("bulk accounting run errored %d times", rep.Errors)
	}
}

// TestDriverRecordsSubMicrosecondLatency: latencies are recorded at
// nanosecond resolution, not truncated to whole microseconds. A direct get
// on a quiesced in-process cluster takes a few microseconds, so truncation
// would make every recorded sample an integer.
func TestDriverRecordsSubMicrosecondLatency(t *testing.T) {
	c, keys := driverCluster(t, 16, 500, 31)
	rep := Run(c, Config{
		Clients:     2,
		Ops:         500,
		GetFraction: 1,
		Route:       p2p.RouteDirect,
		Keys:        keys,
		Seed:        32,
	})
	lat := rep.Latency[OpGet]
	if lat.Count() == 0 {
		t.Fatal("no gets recorded")
	}
	// Percentile returns an actual sample, so stepping through the
	// distribution reads back recorded values.
	for p := 0.0; p <= 1; p += 0.01 {
		if v := lat.Percentile(p); v != math.Trunc(v) {
			return
		}
	}
	t.Fatalf("all %d recorded get latencies are whole microseconds (p50 %v): latency is truncated", lat.Count(), lat.Percentile(0.5))
}

// TestBuildClusterTCPZipfFanout builds the loopback-TCP pair with Zipf data
// on a BATON* overlay: the coordinator sees every requested peer across
// both halves, every pre-loaded key is readable through the wire, and the
// returned stop function tears down both halves — the coordinator's
// listener is closed and the pair's goroutines exit.
func TestBuildClusterTCPZipfFanout(t *testing.T) {
	before := runtime.NumGoroutine()
	const peers = 24
	c, keys, stop, err := BuildCluster(ClusterSpec{
		Peers: peers, Items: 600, Seed: 41, ZipfTheta: 1.0, Fanout: 4, Transport: "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	if got := c.Size(); got != peers {
		t.Fatalf("Size() = %d, want %d", got, peers)
	}
	if len(keys) != 600 {
		t.Fatalf("%d keys returned, want 600", len(keys))
	}
	ids := c.PeerIDs()
	for i, k := range keys {
		_, found, _, err := c.Get(ids[i%len(ids)], k)
		if err != nil || !found {
			t.Fatalf("key %d: found %v, err %v", k, found, err)
		}
	}
	addr := c.Addr()
	stop()
	stopped = true

	if late, err := p2p.JoinRemote(addr, 0); err == nil {
		late.Stop()
		t.Fatalf("coordinator at %s still accepts joins after stop", addr)
	}
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after stop, %d before the build: a half is still running", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
