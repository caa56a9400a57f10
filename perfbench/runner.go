package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
)

type opKind int

const (
	opGet opKind = iota
	opPut
	opRange
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "range"}

// op is one generated data operation. The system receives only these
// generated inputs.
type op struct {
	kind opKind
	idx  int // dataset index of the key (get, put)
	rng  keyspace.Range
	via  core.PeerID
}

// outcome is what the benchmark learned from one call.
type outcome struct {
	err   error
	wrong bool // answered, but the answer failed its check
	hops  int
	items int
}

const maxHops = 64

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned. All its counters are its own; the
// phase reads them after the client has finished or been claimed stuck.
type client struct {
	id  int
	rng *rand.Rand
	// inCall is the start time of the call in flight, 0 between calls and
	// -1 once the watchdog has claimed the call as stuck. Whichever of the
	// client and the watchdog swaps it first decides the call's fate.
	inCall  atomic.Int64
	stuckNs int64
	done    chan struct{}

	wins      [][numOpKinds]*hist // per measurement window
	attempted int64
	errs      int64
	wrong     int64
	stuck     int64
	firstErr  error
	hops      [numOpKinds][maxHops + 1]int64
	items     [numOpKinds]int64
	// Traced runs only: the client's own span, the operation spans it
	// keeps, and the count and summed duration of those it does not.
	span      span
	spans     []span
	dropped   int64
	droppedNs int64
}

func (c *client) hist(w int, k opKind) *hist {
	h := c.wins[w][k]
	if h == nil {
		h = new(hist)
		c.wins[w][k] = h
	}
	return h
}

func (c *client) note(o outcome) {
	c.attempted++
	switch {
	case o.err != nil:
		c.errs++
		if c.firstErr == nil {
			c.firstErr = o.err
		}
	case o.wrong:
		c.wrong++
	}
}

// phase runs the workload's closed-loop clients for a fixed time (or, for
// warm-up, a fixed number of operations per client) and owns the watchdog
// that claims calls still outstanding after their grace period.
type phase struct {
	sys  *system
	w    *workload
	ds   *dataset
	cfg  *config
	salt uint64 // per-phase stream selector, so phases do not repeat ops
	base time.Time

	record   bool  // keep latencies and window counts
	opLimit  int64 // ops per data client when > 0 (warm-up)
	start    int64 // ns since base
	deadline int64
	winNs    int64
	nwin     int

	sl        *spanLog
	spanID    int64 // the phase's own span: parent of every client span
	spanLimit int   // op spans kept per client

	stop    atomic.Bool
	mu      sync.Mutex // guards clients and the dump flag
	clients []*client
	// member is the churn workload's membership caller: watched like the
	// data clients, but never replaced.
	member    *client
	members   *memberLoop
	dumped    bool
	nextID    int
	stuckPath string
}

func (ph *phase) now() int64 { return time.Since(ph.base).Nanoseconds() }

const (
	dataStuckAfter   = time.Second
	memberStuckAfter = 10 * time.Second
	watchdogTick     = 50 * time.Millisecond
)

// run executes the phase and returns once every client has finished or
// been claimed stuck.
func (ph *phase) run(seconds float64) {
	ph.start = ph.now()
	ph.deadline = ph.start + int64(seconds*1e9)
	if ph.nwin < 1 {
		ph.nwin = 1
	}
	ph.winNs = max((ph.deadline-ph.start)/int64(ph.nwin), 1)
	for i := 0; i < ph.w.dataClients; i++ {
		ph.spawn()
	}
	if ph.w.churn && ph.record {
		ph.members = newMemberLoop(ph)
		ph.member = &ph.members.client
		go ph.members.run()
	}
	wdStop := make(chan struct{})
	wdDone := make(chan struct{})
	go ph.watchdog(wdStop, wdDone)

	if ph.opLimit == 0 {
		time.Sleep(time.Until(ph.base.Add(time.Duration(ph.deadline))))
		ph.stop.Store(true)
	}
	ph.drain()
	close(wdStop)
	<-wdDone
}

// spawn starts a data client. The watchdog calls it to replace a client
// whose call it claimed, so the phase keeps its client count.
func (ph *phase) spawn() {
	ph.mu.Lock()
	c := &client{
		id:      ph.nextID,
		rng:     rand.New(rand.NewPCG(ph.cfg.seed, ph.salt<<16|uint64(ph.nextID))),
		stuckNs: dataStuckAfter.Nanoseconds(),
		done:    make(chan struct{}),
		wins:    make([][numOpKinds]*hist, ph.nwin),
	}
	ph.nextID++
	ph.clients = append(ph.clients, c)
	ph.mu.Unlock()
	go ph.dataLoop(c)
}

func (ph *phase) dataLoop(c *client) {
	defer close(c.done)
	c.span = ph.sl.begin("bench.client", ph.spanID, 0)
	defer func() { c.span.End = ph.now() }()
	for n := int64(0); !ph.stop.Load() && (ph.opLimit == 0 || n < ph.opLimit); n++ {
		o := ph.w.next(c.rng, ph.sys, ph.ds)
		start := ph.now()
		c.inCall.Store(start)
		res := ph.w.exec(ph.sys, ph.ds, o)
		end := ph.now()
		if !c.inCall.CompareAndSwap(start, 0) {
			return // claimed stuck by the watchdog: the call is counted there
		}
		c.note(res)
		if !ph.record || end >= ph.deadline {
			continue
		}
		c.hist(int((end-ph.start)/ph.winNs), o.kind).record(end - start)
		c.hops[o.kind][min(res.hops, maxHops)]++
		c.items[o.kind] += int64(res.items)
		if ph.sl == nil {
			continue
		}
		if len(c.spans) < ph.spanLimit {
			c.spans = append(c.spans, span{
				ID: ph.sl.nextID.Add(1), Parent: c.span.ID, Req: int64(c.id)<<40 | n,
				Name: "p2p." + opNames[o.kind], Start: start, End: end,
			})
		} else {
			c.dropped++
			c.droppedNs += end - start
		}
	}
}

// watchdog claims every call outstanding longer than its client's grace
// period: the call counts as failed and stuck, a goroutine dump is written
// once for triage, and a replacement data client takes over. The claimed
// call is never retried.
func (ph *phase) watchdog(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(watchdogTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := ph.now()
		for _, c := range ph.watched() {
			s := c.inCall.Load()
			if s <= 0 || now-s < c.stuckNs || !c.inCall.CompareAndSwap(s, -1) {
				continue
			}
			c.stuck++
			c.attempted++
			ph.dump()
			if c != ph.member && !ph.stop.Load() {
				ph.spawn()
			}
		}
	}
}

// watched lists every client the phase has started, the membership
// caller included.
func (ph *phase) watched() []*client {
	ph.mu.Lock()
	all := append([]*client(nil), ph.clients...)
	ph.mu.Unlock()
	if ph.member != nil {
		all = append(all, ph.member)
	}
	return all
}

func (ph *phase) dump() {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.dumped || ph.stuckPath == "" {
		return
	}
	ph.dumped = true
	f, err := os.Create(ph.stuckPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: goroutine dump: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: goroutine dump: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: a call is stuck; goroutine dump in %s\n", ph.stuckPath)
}

// drain waits until every client has returned or had its call claimed.
// The watchdog keeps running meanwhile, so this is bounded by the longest
// grace period.
func (ph *phase) drain() {
	for {
		pending := false
		for _, c := range ph.watched() {
			select {
			case <-c.done:
			default:
				pending = pending || c.inCall.Load() != -1
			}
		}
		if !pending {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// totals folds every client's counters into one.
func (ph *phase) totals() *client {
	t := &client{wins: make([][numOpKinds]*hist, ph.nwin)}
	for _, c := range ph.watched() {
		t.attempted += c.attempted
		t.errs += c.errs
		t.wrong += c.wrong
		t.stuck += c.stuck
		if t.firstErr == nil {
			t.firstErr = c.firstErr
		}
		for w := range c.wins {
			for k := range c.wins[w] {
				if c.wins[w][k] != nil {
					t.hist(w, opKind(k)).merge(c.wins[w][k])
				}
			}
		}
		for k := range c.hops {
			for h, n := range c.hops[k] {
				t.hops[k][h] += n
			}
			t.items[k] += c.items[k]
		}
		if ph.sl != nil {
			if c.span.ID != 0 && c.inCall.Load() != -1 {
				ph.sl.add(c.span)
			}
			for _, s := range c.spans {
				ph.sl.add(s)
			}
			ph.sl.addDropped(c.span.ID, "p2p", c.dropped, c.droppedNs)
		}
	}
	return t
}
