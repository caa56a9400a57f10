package main

import (
	"strings"
	"testing"

	"baton/internal/workload"
	"baton/internal/workload/driver"
)

// TestCheckFlags: checkFlags is a pure function of the mode, the flags given
// and their values. Flags a mode would silently drop, transport flags
// without -transport tcp, churn or skew requested of an attached client,
// and an unknown range plan or width distribution are all rejected before
// any cluster is built.
func TestCheckFlags(t *testing.T) {
	valid := scenario{cluster: driver.ClusterSpec{Fanout: 2, Transport: "local"}}
	with := func(mut func(*scenario)) scenario {
		s := valid
		mut(&s)
		return s
	}
	tcp := func(mut func(*scenario)) scenario {
		return with(func(s *scenario) { s.cluster.Transport = "tcp"; mut(s) })
	}
	attached := tcp(func(s *scenario) { s.seedAddr = "127.0.0.1:7331" })
	cases := []struct {
		name string
		mode string
		set  []string
		s    scenario
		want string // error substring; empty means accepted
	}{
		{"figures default", "figures", nil, valid, ""},
		{"figures own flags", "figures", []string{"figure", "sizes", "queries", "seed"}, valid, ""},
		{"unknown mode", "throughput", nil, valid, `unknown mode "throughput"`},
		{"run scenario flags", "run", []string{"kill", "recover", "joins", "departs", "theta", "autobalance", "compare", "plan", "rangedist", "bulk", "route", "get", "range"}, valid, ""},
		{"bench own flags", "bench", []string{"out", "requirespeedup", "compareoverlays", "fanout", "tracesample", "metricsout"}, valid, ""},
		{"run flag in bench", "bench", []string{"kill"}, valid, "-kill (only meaningful in mode run)"},
		{"mix flag in bench", "bench", []string{"get"}, valid, "-get (only meaningful in mode run)"},
		{"theta in bench", "bench", []string{"theta"}, valid, "-theta"},
		{"run flag in figures", "figures", []string{"compare"}, valid, "-compare (only meaningful in mode run)"},
		{"shared flag in figures", "figures", []string{"fanout"}, valid, "-fanout (only meaningful in mode run/bench)"},
		{"bench flag in run", "run", []string{"requirespeedup"}, valid, "-requirespeedup (only meaningful in mode bench)"},
		{"unknown transport", "run", []string{"transport"}, tcp(func(s *scenario) { s.cluster.Transport = "udp" }), `unknown -transport "udp"`},
		{"listen without tcp", "run", []string{"listen"}, with(func(s *scenario) { s.cluster.Listen = ":0" }), "-listen requires -transport tcp"},
		{"seedaddr without tcp", "run", []string{"seedaddr"}, with(func(s *scenario) { s.seedAddr = "127.0.0.1:7331" }), "-seedaddr requires -transport tcp"},
		{"listen over tcp", "bench", []string{"transport", "listen"}, tcp(func(s *scenario) { s.cluster.Listen = "127.0.0.1:0" }), ""},
		{"seedaddr over tcp", "run", []string{"transport", "seedaddr", "route", "plan"}, attached, ""},
		{"seedaddr in bench", "bench", []string{"transport", "seedaddr"}, attached, "-seedaddr (only meaningful in mode run)"},
		{"seedaddr with listen", "run", []string{"transport", "seedaddr", "listen"}, tcp(func(s *scenario) { s.seedAddr, s.cluster.Listen = "127.0.0.1:7331", ":0" }), "mutually exclusive"},
		{"seedaddr with kill", "run", []string{"seedaddr", "kill"}, attached, "-kill cannot be combined with -seedaddr"},
		{"seedaddr with joins", "run", []string{"seedaddr", "joins"}, attached, "-joins cannot be combined with -seedaddr"},
		{"seedaddr with departs", "run", []string{"seedaddr", "departs"}, attached, "-departs cannot be combined with -seedaddr"},
		{"seedaddr with recover", "run", []string{"seedaddr", "recover"}, attached, "-recover cannot be combined with -seedaddr"},
		{"seedaddr with autobalance", "run", []string{"seedaddr", "autobalance"}, attached, "-autobalance cannot be combined with -seedaddr"},
		{"seedaddr with theta", "run", []string{"seedaddr", "theta"}, attached, "-theta cannot be combined with -seedaddr"},
		{"seedaddr with compare", "run", []string{"seedaddr", "compare"}, attached, "-compare cannot be combined with -seedaddr"},
		{"invalid fanout", "run", []string{"fanout"}, with(func(s *scenario) { s.cluster.Fanout = 1 }), "invalid -fanout 1"},
		{"known plan and dist", "run", []string{"plan", "rangedist"}, with(func(s *scenario) {
			s.workload.Plan, s.workload.RangeDist = driver.PlanAdaptive, driver.RangeDistBimodal
		}), ""},
		{"unknown plan", "run", []string{"plan"}, with(func(s *scenario) { s.workload.Plan = "zigzag" }), `unknown plan "zigzag"`},
		{"unknown rangedist", "run", []string{"rangedist"}, with(func(s *scenario) { s.workload.RangeDist = "normal" }), `unknown range distribution "normal"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkFlags(tc.mode, set, tc.s)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRunScenario runs the run mode on tiny in-process clusters in each
// scenario shape CI smokes: kills alone (the audit repairs the dead peers),
// joins and departures, kills with repairs, and Zipf data with the
// balancer-off/on comparison. A nil error means the run finished and the
// structural and replication audits (and for -compare the gate) passed.
func TestRunScenario(t *testing.T) {
	base := scenario{
		cluster:  driver.ClusterSpec{Peers: 16, Items: 600, Seed: 3, Fanout: 2, Transport: "local"},
		workload: driver.Config{Clients: 4, Ops: 800, Seed: 3},
	}
	cases := []struct {
		name string
		mut  func(*scenario)
	}{
		{"kill", func(s *scenario) { s.workload.KillPeers = 2 }},
		{"join-depart", func(s *scenario) { s.workload.JoinPeers, s.workload.DepartPeers = 4, 4 }},
		{"kill-recover", func(s *scenario) { s.workload.KillPeers, s.workload.RecoverPeers = 3, 3 }},
		{"zipf-compare", func(s *scenario) {
			s.cluster.Items = 1500
			s.cluster.ZipfTheta = 1.0
			s.workload.Distribution, s.workload.ZipfTheta = workload.Zipf, 1.0
			s.compare = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			if err := runScenario(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}
