package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// report collects a run's metrics, its failure counts and its environment
// stamp. It prints one line per metric, writes the whole report as JSON
// and prints the contract line last.
type report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Stamp    map[string]any    `json:"stamp"`
	Metrics  map[string]metric `json:"metrics"`
	Samples  map[string]int    `json:"samples"`
	Tails    map[string]string `json:"tails,omitempty"`
	// Windows holds the per-window (per-set-up for setup_s and heap_mb)
	// values the end-to-end medians are taken over.
	Windows map[string][]float64 `json:"windows,omitempty"`

	Attempted int64   `json:"attempted"`
	Errors    int64   `json:"errors"`
	Wrong     int64   `json:"wrong"`
	Stuck     int64   `json:"stuck"`
	Audits    int     `json:"audits"`
	FailFrac  float64 `json:"fail_frac"`
	FirstFail string  `json:"first_failure,omitempty"`

	// e2e names the metrics of the end-to-end contract line; layer selects
	// every metric of layerUnits instead.
	e2e   []string
	layer bool
}

// add folds one phase's call counts into the run's.
func (r *report) add(t *client) {
	r.Attempted += t.attempted
	r.Errors += t.errs
	r.Wrong += t.wrong
	r.Stuck += t.stuck
	if t.firstErr != nil && r.FirstFail == "" {
		r.FirstFail = t.firstErr.Error()
	}
}

// fail records a failed check that is not a data operation (an audit or
// an isolated layer call): it counts as attempted and as wrong.
func (r *report) fail(err error) {
	r.Attempted++
	r.Wrong++
	if r.FirstFail == "" {
		r.FirstFail = err.Error()
	}
}

// audit runs the closing audits and counts each check.
func (r *report) audit(s *system, ds *dataset) {
	checks, failed, first := audit(s, ds)
	r.Audits += checks
	r.Attempted += int64(checks)
	r.Wrong += int64(failed)
	if first != nil && r.FirstFail == "" {
		r.FirstFail = first.Error()
	}
}

func (r *report) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // nothing to divide by: the workload does not exercise it
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if r.Samples == nil {
		r.Samples = map[string]int{}
	}
	r.Samples[name] = n
}

// setTail sets a latency metric and notes, from the histogram behind it,
// the highest percentile with at least ten samples beyond it.
func (r *report) setTail(name string, us float64, h *hist) {
	r.set(name, us, "us", int(h.n))
	if r.Tails == nil {
		r.Tails = map[string]string{}
	}
	if p, v, ok := h.tailPercentile(); ok {
		r.Tails[name] = fmt.Sprintf("p%g=%.3fus", p, v/1e3)
	} else {
		r.Tails[name] = "fewer than ten samples beyond p50"
	}
}

// detailKinds adds the per-operation latencies the workload produced:
// Get, Put and RangeAdaptive p50/p99 over the whole measured time, and the
// churn workload's Join and Depart medians. They are reported, not bound.
func (r *report) detailKinds(t *client, joins, departs []float64) {
	for k := opKind(0); k < numOpKinds; k++ {
		h := mergedKinds(t, k)
		if h.n == 0 {
			continue
		}
		r.setTail(opNames[k]+"_p50_us", h.quantile(0.50)/1e3, h)
		r.setTail(opNames[k]+"_p99_us", h.quantile(0.99)/1e3, h)
	}
	if len(joins)+len(departs) > 0 {
		r.set("join_p50_ms", median(joins), "ms", len(joins))
		r.set("depart_p50_ms", median(departs), "ms", len(departs))
	}
}

// finish prints every metric, writes the JSON report and prints the
// contract line.
func (r *report) finish(stem string) error {
	failed := r.Errors + r.Wrong + r.Stuck
	if r.Attempted > 0 {
		r.FailFrac = float64(failed) / float64(r.Attempted)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-34s %14.4f %-7s n=%d", n, m.Value, m.Unit, r.Samples[n])
		if tail, ok := r.Tails[n]; ok {
			line += "  " + tail
		}
		fmt.Println(line)
	}
	fmt.Printf("%-34s %14.6f %-7s attempted=%d errors=%d wrong=%d stuck=%d audits=%d\n",
		"fail_frac", r.FailFrac, "ratio", r.Attempted, r.Errors, r.Wrong, r.Stuck, r.Audits)
	if r.FirstFail != "" {
		fmt.Printf("first failure: %s\n", r.FirstFail)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", b, 0o644); err != nil {
		return err
	}

	out := result{Correct: r.Wrong == 0, Attempted: r.Attempted, Failed: failed, Metrics: map[string]metric{}}
	keep := r.e2e
	if r.layer {
		keep = keep[:0]
		for n := range layerUnits {
			keep = append(keep, n)
		}
	}
	for _, n := range keep {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
