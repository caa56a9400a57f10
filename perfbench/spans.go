package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanLog keeps the traced run's spans in memory: one span around every
// public call the benchmark makes into the system and around every
// isolated layer loop. A nil *spanLog records nothing, which is how the
// untraced end-to-end runs keep it off the measured path. Spans are
// written out when the run ends.
//
// Each client keeps only its first operation spans; the rest are folded
// into per-parent sums as they happen, which keeps self times exact
// because one client's calls never overlap.
type spanLog struct {
	base   time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// dropped counts the leaf spans not kept; droppedNs sums their
	// durations per parent and droppedSelf per layer.
	dropped     int64
	droppedNs   map[int64]int64
	droppedSelf map[string]int64
}

// span is one timed call. Name is "<layer>.<call>"; Parent is 0 for a
// root; Req groups the spans of one benchmark request (0 outside ops).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), droppedNs: map[int64]int64{}, droppedSelf: map[string]int64{}}
}

// begin opens a span and returns it with its ID allocated; end files it.
func (l *spanLog) begin(name string, parent, req int64) span {
	if l == nil {
		return span{}
	}
	return span{ID: l.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: l.now()}
}

func (l *spanLog) end(s span) {
	if l == nil {
		return
	}
	s.End = l.now()
	l.add(s)
}

// add files a span whose start and end the caller measured itself (the
// clients reuse the timestamps they already take for latency).
func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// addDropped folds n leaf spans of one layer, children of parent and
// together lasting ns, into the sums.
func (l *spanLog) addDropped(parent int64, layer string, n, ns int64) {
	l.mu.Lock()
	l.dropped += n
	l.droppedNs[parent] += ns
	l.droppedSelf[layer] += ns
	l.mu.Unlock()
}

func (l *spanLog) now() int64 { return time.Since(l.base).Nanoseconds() }

// selfTimes returns each layer's self time: a span's duration minus the
// part of its interval covered by the union of its children, summed over
// the layer's spans.
func (l *spanLog) selfTimes() map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for layer, ns := range l.droppedSelf {
		self[layer] += ns
	}
	for _, s := range l.spans {
		busy := covered(s, children[s.ID]) + l.droppedNs[s.ID]
		self[layerOf(s.Name)] += max(s.End-s.Start-busy, 0)
	}
	return self
}

// covered measures how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := kids[0].Start, kids[0].End
	for _, k := range kids[1:] {
		if k.Start > curE {
			total += clip(parent, curS, curE)
			curS, curE = k.Start, k.End
		} else if k.End > curE {
			curE = k.End
		}
	}
	return total + clip(parent, curS, curE)
}

func clip(parent span, s, e int64) int64 {
	s, e = max(s, parent.Start), min(e, parent.End)
	return max(e-s, 0)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as JSON lines, one span a line, after a header
// line giving the count and how many were dropped at the cap.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]int64{"spans": int64(len(l.spans)), "dropped": l.dropped}); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
