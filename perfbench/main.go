// Command perfbench is the repository's benchmark: it builds a 128-peer
// BATON overlay holding 100k items, drives one of four closed-loop
// workloads through the cluster's public API for a fixed time, checks
// every answer, and reports end-to-end metrics (or, with -trace 1, the
// per-layer split of the same workload).
//
//	go build -o perfbench . && ./perfbench -workload kv-overlay -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Everything before it is
// the human-readable report; the full report, and with -trace 1 the
// spans, are also written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"baton/internal/obs"
)

// The sizes every workload runs at: binary peers, loaded items (values
// of valueLen bytes) and set-ups per end-to-end run.
const (
	numPeers  = 128
	numItems  = 100000
	numSetups = 5
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-overlay, kv-wire, range-mix or churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for reports, spans and goroutine dumps")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision stamped on the report")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	w, err := workloadNamed(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return errors.New("-seconds must be between 1 and 60")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	ds := newDataset(cfg.seed, numItems)
	w.prepare(cfg.seed, ds)
	rep := &report{
		Workload: w.name,
		Why:      w.why,
		Stamp: map[string]any{
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"num_cpu":     runtime.NumCPU(),
			"go":          runtime.Version(),
			"commit":      cfg.commit,
			"seed":        cfg.seed,
			"transport":   map[bool]string{false: "local", true: "tcp-loopback"}[w.wire],
			"route":       map[bool]string{false: "overlay", true: "direct"}[w.route != 0],
			"peers":       numPeers,
			"items":       numItems,
			"value_bytes": valueLen,
			"clients":     w.dataClients,
			"seconds":     cfg.seconds,
			"trace":       cfg.trace,
		},
		Metrics: map[string]metric{},
	}
	fmt.Printf("perfbench %s: %v\n", w.name, stampLine(rep.Stamp))
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	if cfg.trace {
		err = runTraced(cfg, w, ds, rep, stem)
	} else {
		err = runEndToEnd(cfg, w, ds, rep, stem)
	}
	if err != nil {
		return err
	}
	return rep.finish(stem)
}

// newPhase returns a phase of the workload on s. salt makes each phase of
// a run draw its own operation stream from the run's seed.
func newPhase(s *system, w *workload, ds *dataset, cfg *config, stem string, salt uint64) *phase {
	return &phase{sys: s, w: w, ds: ds, cfg: cfg, salt: salt, base: time.Now(), stuckPath: stem + "-stuck.txt"}
}

// setUp builds the system and warms it up with the workload's own mix.
func setUp(cfg *config, w *workload, ds *dataset, rep *report, sl *spanLog, parent int64, stem string) (*system, error) {
	s, err := buildSystem(w, cfg, ds, sl, parent)
	if err != nil {
		return nil, err
	}
	sp := sl.begin("bench.warmup", parent, 0)
	ph := newPhase(s, w, ds, cfg, stem, 0)
	ph.opLimit = w.warmOps
	ph.run(0)
	sl.end(sp)
	rep.add(ph.totals())
	return s, nil
}

// runEndToEnd sets the system up numSetups times and measures a slice of
// the run on each set-up, so what one set-up happens to get (placement of
// goroutines and memory, the host's load at that moment) is one sample
// among several. Rates and percentiles are medians over the slices, each
// long enough to hold several garbage collections; counts are totals over
// all slices.
func runEndToEnd(cfg *config, w *workload, ds *dataset, rep *report, stem string) error {
	var setups, heaps, rates, p50s, p99s, joins, departs []float64
	var msgs, mallocs, dataOps float64
	all := &client{}
	slice := float64(cfg.seconds) / numSetups
	for i := 0; i < numSetups; i++ {
		runtime.GC()
		start := time.Now()
		s, err := setUp(cfg, w, ds, rep, nil, 0, stem)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())

		ph := newPhase(s, w, ds, cfg, stem, uint64(1+i))
		ph.record, ph.nwin = true, 1
		before := snap(s)
		ph.run(slice)
		after := snap(s)
		t := ph.totals()
		rep.add(t)
		if w.churn {
			rep.audit(s, ds)
			joins = append(joins, ph.members.joins...)
			departs = append(departs, ph.members.departs...)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/(1<<20))
		if err := s.stopWithin(stopGrace); err != nil {
			return err
		}

		msgs += float64(after.msgs - before.msgs)
		mallocs += float64(after.mallocs - before.mallocs)
		dataOps += float64(dataAttempted(ph, t))
		rates = append(rates, windowRates(t, ph)...)
		p50s = append(p50s, windowQuantiles(t, 0.50)...)
		p99s = append(p99s, windowQuantiles(t, 0.99)...)
		all.wins = append(all.wins, t.wins...)
	}

	merged := mergedData(all)
	rep.Windows = map[string][]float64{"setup_s": setups, "ops_per_s": rates, "op_p50_us": p50s, "op_p99_us": p99s, "heap_mb": heaps}
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("ops_per_s", median(rates), "ops/s", int(merged.n))
	rep.setTail("op_p50_us", median(p50s), merged)
	rep.setTail("op_p99_us", median(p99s), merged)
	rep.set("msgs_per_op", msgs/dataOps, "msgs", int(dataOps))
	rep.set("allocs_per_op", mallocs/dataOps, "allocs", int(dataOps))
	rep.set("heap_mb", median(heaps), "MB", len(heaps))
	rep.detailKinds(all, joins, departs)
	rep.e2e = []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "msgs_per_op", "allocs_per_op", "heap_mb"}
	return nil
}

// traceSampling is the 1-in-N rate of the program's own hop tracing in the
// traced segments.
const traceSampling = 64

func runTraced(cfg *config, w *workload, ds *dataset, rep *report, stem string) error {
	sl := newSpanLog()
	root := sl.begin("bench.setup", 0, 0)
	s, err := setUp(cfg, w, ds, rep, sl, root.ID, stem)
	sl.end(root)
	if err != nil {
		return err
	}

	// Four segments, untraced-traced-traced-untraced, so a drift that is
	// linear over the run falls equally on both sides of the overhead
	// comparison.
	root = sl.begin("bench.measure", 0, 0)
	measureStart := time.Now()
	before := snap(s)
	seg := float64(cfg.seconds) / 4
	var rate [2]float64
	var hops []hopSample
	run := &client{wins: make([][numOpKinds]*hist, 1)}
	tracedPoint := new(hist)
	events := map[int64]obs.Event{}
	dataOps := 0.0
	for i := 0; i < 4; i++ {
		traced := 0
		if i == 1 || i == 2 {
			traced = 1
		}
		for _, c := range s.nodes {
			c.SetTraceSampling(traced * traceSampling)
		}
		ph := newPhase(s, w, ds, cfg, stem, uint64(1+i))
		ph.base, ph.record, ph.nwin = sl.base, true, 1
		ph.sl, ph.spanID, ph.spanLimit = sl, root.ID, 5000
		ph.run(seg)
		// The journal is a ring: read it every segment, before it can wrap.
		for _, ev := range s.coord.Events() {
			events[ev.Seq] = ev
		}
		t := ph.totals()
		rep.add(t)
		rate[traced] += float64(mergedData(t).n) / seg
		dataOps += float64(dataAttempted(ph, t))
		if traced == 1 {
			hops = append(hops, collectHops(s)...)
			tracedPoint.merge(mergedKinds(t, opGet, opPut))
		}
		for k := range t.hops {
			for h, n := range t.hops[k] {
				run.hops[k][h] += n
			}
			run.items[k] += t.items[k]
			run.hist(0, opKind(k)).merge(mergedKinds(t, opKind(k)))
		}
	}
	for _, c := range s.nodes {
		c.SetTraceSampling(0)
	}
	after := snap(s)
	sl.end(root)
	if w.churn {
		rep.audit(s, ds)
	}

	root = sl.begin("bench.layers", 0, 0)
	m := map[string]float64{}
	err = timeLayers(cfg, s, ds, sl, root.ID, m)
	sl.end(root)
	if err != nil {
		rep.fail(fmt.Errorf("isolated layer timing: %w", err))
	}
	if err := s.stopWithin(stopGrace); err != nil {
		rep.fail(err)
	}

	layerMetrics(m, s, before, after, run, tracedPoint, dataOps, hops, events, measureStart)
	m["obs.trace_overhead_frac"] = 0
	if rate[0] > 0 {
		m["obs.trace_overhead_frac"] = 1 - rate[1]/rate[0]
	}
	self := sl.selfTimes()
	var total int64
	for _, ns := range self {
		total += ns
	}
	for _, l := range spanLayers {
		m["span.self_frac."+l] = 0
		if total > 0 {
			m["span.self_frac."+l] = float64(self[l]) / float64(total)
		}
	}
	for name, v := range m {
		rep.set(name, v, layerUnits[name], 0)
	}
	rep.layer = true
	if err := sl.write(stem + "-spans.jsonl"); err != nil {
		return err
	}
	fmt.Printf("spans: %d kept, %d dropped at the cap, written to %s\n", len(sl.spans), sl.dropped, stem+"-spans.jsonl")
	return nil
}

// dataAttempted is the number of data operations the phase attempted:
// every client's count minus the membership caller's.
func dataAttempted(ph *phase, t *client) int64 {
	n := t.attempted
	if ph.member != nil {
		n -= ph.member.attempted
	}
	return n
}

func mergedKinds(t *client, kinds ...opKind) *hist {
	var h hist
	for w := range t.wins {
		for _, k := range kinds {
			h.merge(t.wins[w][k])
		}
	}
	return &h
}

func mergedData(t *client) *hist { return mergedKinds(t, opGet, opPut, opRange) }

func windowRates(t *client, ph *phase) []float64 {
	out := make([]float64, len(t.wins))
	for w := range t.wins {
		var n uint64
		for k := range t.wins[w] {
			if h := t.wins[w][k]; h != nil {
				n += h.n
			}
		}
		out[w] = float64(n) / (float64(ph.winNs) / 1e9)
	}
	return out
}

func windowQuantiles(t *client, q float64) []float64 {
	var out []float64
	for w := range t.wins {
		var h hist
		for k := range t.wins[w] {
			h.merge(t.wins[w][k])
		}
		if h.n > 0 {
			out = append(out, h.quantile(q)/1e3)
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func stampLine(st map[string]any) string {
	b, _ := json.Marshal(st) // a map of plain values always marshals
	return string(b)
}
