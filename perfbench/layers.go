package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/store"
	"baton/internal/transport"
)

// timeLayers times isolated calls into each layer's public functions, so a
// change in an end-to-end metric can be traced to the layer that moved.
// Every loop runs under its own span, child of parent.
func timeLayers(cfg *config, s *system, ds *dataset, sl *spanLog, parent int64, m map[string]float64) error {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6c6179))
	loop := func(name string, n int, body func(i int)) float64 {
		sp := sl.begin(name, parent, 0)
		start := time.Now()
		for i := 0; i < n; i++ {
			body(i)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(n)
		sl.end(sp)
		return ns
	}

	// store: a B-tree holding one peer's share of the dataset.
	share := len(ds.keys) / numPeers
	st := store.New()
	for i := 0; i < share; i++ {
		st.Put(ds.keys[i], ds.values[i])
	}
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = rng.IntN(share)
	}
	var bad error
	m["store.get_ns"] = loop("store.get", 400000, func(i int) {
		if _, ok := st.Get(ds.keys[picks[i&(len(picks)-1)]]); !ok && bad == nil {
			bad = fmt.Errorf("isolated store lost key %d", ds.keys[picks[i&(len(picks)-1)]])
		}
	})
	m["store.put_ns"] = loop("store.put", 400000, func(i int) {
		j := picks[i&(len(picks)-1)]
		st.Put(ds.keys[j], ds.values[j])
	})
	whole := keyspace.Range{Lower: ds.keys[0], Upper: ds.keys[share-1] + 1}
	const scans = 2000
	before := mallocs()
	perScan := loop("store.scan", scans, func(int) {
		if got := st.Scan(whole); len(got) != share && bad == nil {
			bad = fmt.Errorf("isolated store scan returned %d of %d items", len(got), share)
		}
	})
	m["store.allocs_per_scan"] = float64(mallocs()-before) / scans
	m["store.scan_ns_per_item"] = perScan / float64(share)

	// transport: frame codec and a loopback TCP pair.
	msg := &transport.Msg{To: 7, Corr: 9, Origin: 2, Kind: 1, Payload: ds.values[0]}
	buf := make([]byte, 0, 256)
	m["transport.frame_write_ns"] = loop("transport.frame_write", 1000000, func(int) {
		buf = transport.AppendFrame(buf[:0], msg)
	})
	const frames = 200000
	stream := make([]byte, 0, frames*len(buf))
	for i := 0; i < frames; i++ {
		stream = transport.AppendFrame(stream, msg)
	}
	r := bytes.NewReader(stream)
	before = mallocs()
	m["transport.frame_read_ns"] = loop("transport.frame_read", frames, func(int) {
		if _, err := transport.ReadFrame(r, 0); err != nil && bad == nil {
			bad = fmt.Errorf("frame decode: %w", err)
		}
	})
	m["transport.allocs_per_frame"] = float64(mallocs()-before) / frames
	if bad != nil {
		return bad
	}
	rtt, err := loopbackRTT(sl, parent, msg)
	if err != nil {
		return err
	}
	m["transport.rtt_p50_us"] = rtt

	// query: the planner's span estimate against the live topology.
	rs := make([]keyspace.Range, 1024)
	for i := range rs {
		rs[i] = ds.randomRange(rng, []int{narrowKeys, len(ds.keys) / wideShare}[i%2])
	}
	sink := 0
	m["query.estimate_span_ns"] = loop("query.estimate_span", 400000, func(i int) {
		sink += s.client.EstimateSpan(rs[i&1023])
	})
	if sink <= 0 {
		return fmt.Errorf("EstimateSpan returned no peers")
	}

	// core: the structural mirror's join and leave at the workload's size.
	nw := core.NewNetwork(core.Config{Seed: int64(cfg.seed), Fanout: 2})
	for nw.Size() < numPeers {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.IntN(len(ids))]); err != nil {
			return fmt.Errorf("core grow: %w", err)
		}
	}
	const churns = 200
	var joinNs, leaveNs, joinMsgs float64
	sp := sl.begin("core.join_leave", parent, 0)
	for i := 0; i < churns; i++ {
		ids := nw.PeerIDs()
		t := time.Now()
		_, cost, err := nw.Join(ids[rng.IntN(len(ids))])
		joinNs += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return fmt.Errorf("core join: %w", err)
		}
		joinMsgs += float64(cost.Messages)
		ids = nw.PeerIDs()
		t = time.Now()
		_, err = nw.Leave(ids[rng.IntN(len(ids))])
		leaveNs += float64(time.Since(t).Nanoseconds())
		if err != nil {
			return fmt.Errorf("core leave: %w", err)
		}
	}
	sl.end(sp)
	m["core.join_us"] = joinNs / churns / 1e3
	m["core.leave_us"] = leaveNs / churns / 1e3
	m["core.join_msgs"] = joinMsgs / churns

	// obs: the flight recorder's histogram, and the benchmark's own
	// per-operation instrumentation (two clock reads and a record).
	var oh obs.Histogram
	m["obs.observe_ns"] = loop("obs.observe", 1000000, func(i int) { oh.Observe(int64(i & 0xfffff)) })
	var bh hist
	base := time.Now()
	m["bench.record_ns"] = loop("bench.record", 1000000, func(int) {
		t0 := time.Since(base).Nanoseconds()
		bh.record(time.Since(base).Nanoseconds() - t0)
	})
	return nil
}

// loopbackRTT measures the median round trip of a 100-byte frame between
// two TCP transports on loopback: one echoes every frame it receives.
func loopbackRTT(sl *spanLog, parent int64, msg *transport.Msg) (float64, error) {
	var echo atomic.Pointer[transport.TCP]
	server, err := transport.Listen(transport.Config{
		Self:    1,
		Handler: func(from transport.NodeID, m *transport.Msg) { echo.Load().Send(from, m) },
		Assign:  func() transport.NodeID { return 2 },
	})
	if err != nil {
		return 0, fmt.Errorf("transport listen: %w", err)
	}
	echo.Store(server)
	defer server.Close()
	got := make(chan struct{}, 1)
	cl, err := transport.Listen(transport.Config{
		Handler: func(transport.NodeID, *transport.Msg) { got <- struct{}{} },
	})
	if err != nil {
		return 0, fmt.Errorf("transport listen: %w", err)
	}
	defer cl.Close()
	head, err := cl.Dial(server.Addr())
	if err != nil {
		return 0, fmt.Errorf("transport dial: %w", err)
	}
	ping := func() (int64, error) {
		t := time.Now()
		if !cl.Send(head, msg) {
			return 0, fmt.Errorf("transport send refused")
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("transport echo lost")
		}
		return time.Since(t).Nanoseconds(), nil
	}
	for i := 0; i < 500; i++ {
		if _, err := ping(); err != nil {
			return 0, err
		}
	}
	var h hist
	sp := sl.begin("transport.rtt", parent, 0)
	for i := 0; i < 5000; i++ {
		ns, err := ping()
		if err != nil {
			return 0, err
		}
		h.record(ns)
	}
	sl.end(sp)
	return h.quantile(0.5) / 1e3, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
