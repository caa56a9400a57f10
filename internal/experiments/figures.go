package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"baton/internal/core"
	"baton/internal/stats"
	"baton/internal/workload"
)

// FigureA reproduces Figure 8(a): the average number of messages needed to
// find the node that accepts a join and the node that replaces a departing
// peer, as a function of the network size, for BATON, CHORD and the multiway
// tree.
func FigureA(opt Options) Result {
	opt = opt.normalised()
	series := map[string]*stats.Series{
		"baton join":     {Label: "baton join"},
		"baton leave":    {Label: "baton leave"},
		"chord join":     {Label: "chord join"},
		"multiway join":  {Label: "multiway join"},
		"multiway leave": {Label: "multiway leave"},
	}
	for _, size := range opt.Sizes {
		bj := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*101
			nw, _ := batonNetwork(size, seed, 0, workload.Uniform, core.LoadBalanceConfig{})
			return measureBatonChurn(nw, opt.Churn, seed, true)
		})
		bl := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*101
			nw, _ := batonNetwork(size, seed, 0, workload.Uniform, core.LoadBalanceConfig{})
			return measureBatonChurn(nw, opt.Churn, seed, false)
		})
		cj := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*131
			ring, _ := chordRing(size, seed, 0)
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for i := 0; i < opt.Churn; i++ {
				ids := ring.NodeIDs()
				_, cost, err := ring.Join(ids[rng.Intn(len(ids))])
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.LocateMessages)
			}
			return acc.Mean()
		})
		mj, ml := multiwayChurnCosts(size, opt, opt.Seed)
		series["baton join"].Add(float64(size), bj)
		series["baton leave"].Add(float64(size), bl)
		series["chord join"].Add(float64(size), cj)
		series["multiway join"].Add(float64(size), mj)
		series["multiway leave"].Add(float64(size), ml)
	}
	return Result{
		ID:     "8a",
		Title:  "Cost of finding the join node and the replacement node",
		XLabel: "network size",
		Series: []stats.Series{
			*series["baton join"], *series["baton leave"], *series["chord join"],
			*series["multiway join"], *series["multiway leave"],
		},
		Notes: []string{
			"BATON join/leave location cost grows very slowly with N and stays below the tree height.",
			"CHORD join location cost grows with log N and exceeds BATON's.",
			"The multiway tree pays heavily on departures (it must contact every child).",
		},
	}
}

// measureBatonChurn measures the average locate cost of joins (joins=true)
// or leaves (joins=false) on an existing network.
func measureBatonChurn(nw *core.Network, ops int, seed int64, joins bool) float64 {
	rng := rand.New(rand.NewSource(seed + 7))
	var acc stats.Accumulator
	for i := 0; i < ops; i++ {
		if joins {
			ids := nw.PeerIDs()
			_, cost, err := nw.Join(ids[rng.Intn(len(ids))])
			if err != nil {
				panic(err)
			}
			acc.AddInt(cost.LocateMessages)
		} else {
			if nw.Size() <= 2 {
				break
			}
			ids := nw.PeerIDs()
			cost, err := nw.Leave(ids[rng.Intn(len(ids))])
			if err != nil {
				panic(err)
			}
			acc.AddInt(cost.LocateMessages)
		}
	}
	return acc.Mean()
}

// multiwayChurnCosts measures multiway join and leave locate costs.
func multiwayChurnCosts(size int, opt Options, seed int64) (joinCost, leaveCost float64) {
	joinCost = averageOver(opt.Runs, func(run int) float64 {
		t, _ := multiwayTree(size, seed+int64(run)*171, 0)
		rng := rand.New(rand.NewSource(seed + int64(run)))
		var acc stats.Accumulator
		for i := 0; i < opt.Churn; i++ {
			ids := t.PeerIDs()
			_, cost, err := t.Join(ids[rng.Intn(len(ids))])
			if err != nil {
				panic(err)
			}
			acc.AddInt(cost.LocateMessages)
		}
		return acc.Mean()
	})
	leaveCost = averageOver(opt.Runs, func(run int) float64 {
		t, _ := multiwayTree(size, seed+int64(run)*171, 0)
		rng := rand.New(rand.NewSource(seed + int64(run)))
		var acc stats.Accumulator
		for i := 0; i < opt.Churn && t.Size() > 2; i++ {
			ids := t.PeerIDs()
			cost, err := t.Leave(ids[rng.Intn(len(ids))])
			if err != nil {
				panic(err)
			}
			acc.AddInt(cost.LocateMessages)
		}
		return acc.Mean()
	})
	return joinCost, leaveCost
}

// FigureB reproduces Figure 8(b): the average number of messages needed to
// update routing tables after a join or a leave.
func FigureB(opt Options) Result {
	opt = opt.normalised()
	series := map[string]*stats.Series{
		"baton":    {Label: "baton"},
		"chord":    {Label: "chord"},
		"multiway": {Label: "multiway"},
	}
	for _, size := range opt.Sizes {
		b := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*211
			nw, _ := batonNetwork(size, seed, 0, workload.Uniform, core.LoadBalanceConfig{})
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for i := 0; i < opt.Churn; i++ {
				ids := nw.PeerIDs()
				if i%2 == 0 {
					_, cost, err := nw.Join(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				} else {
					cost, err := nw.Leave(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				}
			}
			return acc.Mean()
		})
		c := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*223
			ring, _ := chordRing(size, seed, 0)
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for i := 0; i < opt.Churn; i++ {
				ids := ring.NodeIDs()
				if i%2 == 0 {
					_, cost, err := ring.Join(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				} else {
					cost, err := ring.Leave(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				}
			}
			return acc.Mean()
		})
		m := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*227
			t, _ := multiwayTree(size, seed, 0)
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for i := 0; i < opt.Churn; i++ {
				ids := t.PeerIDs()
				if i%2 == 0 {
					_, cost, err := t.Join(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				} else {
					cost, err := t.Leave(ids[rng.Intn(len(ids))])
					if err != nil {
						panic(err)
					}
					acc.AddInt(cost.UpdateMessages)
				}
			}
			return acc.Mean()
		})
		series["baton"].Add(float64(size), b)
		series["chord"].Add(float64(size), c)
		series["multiway"].Add(float64(size), m)
	}
	return Result{
		ID:     "8b",
		Title:  "Cost of updating routing tables on join/leave",
		XLabel: "network size",
		Series: []stats.Series{*series["baton"], *series["chord"], *series["multiway"]},
		Notes: []string{
			"BATON updates O(log N) routing entries per membership change.",
			"CHORD pays O(log^2 N), clearly above BATON at every size.",
			"The multiway tree updates fewer entries but pays for it in search cost (Figure 8d).",
		},
	}
}

// FigureC reproduces Figure 8(c): the average number of messages per insert
// and delete operation.
func FigureC(opt Options) Result {
	opt = opt.normalised()
	ins := stats.Series{Label: "baton insert"}
	del := stats.Series{Label: "baton delete"}
	chordIns := stats.Series{Label: "chord insert"}
	mwIns := stats.Series{Label: "multiway insert"}
	for _, size := range opt.Sizes {
		i, d := 0.0, 0.0
		i = averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*301
			nw, keys := batonNetwork(size, seed, opt.DataPerNode*size/10, workload.Uniform, core.LoadBalanceConfig{})
			gen := workload.NewGenerator(workload.Config{Seed: seed + 5})
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				cost, err := nw.Insert(nw.RandomPeer(), gen.NextKey(), nil)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			_ = keys
			return acc.Mean()
		})
		d = averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*307
			nw, keys := batonNetwork(size, seed, opt.DataPerNode*size/10, workload.Uniform, core.LoadBalanceConfig{})
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for q := 0; q < opt.Queries && len(keys) > 0; q++ {
				k := keys[rng.Intn(len(keys))]
				_, cost, err := nw.Delete(nw.RandomPeer(), k)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		ci := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*311
			ring, _ := chordRing(size, seed, 0)
			gen := workload.NewGenerator(workload.Config{Seed: seed + 5})
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				cost, err := ring.Insert(ring.RandomNode(), gen.NextKey())
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		mi := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*313
			t, _ := multiwayTree(size, seed, 0)
			gen := workload.NewGenerator(workload.Config{Seed: seed + 5})
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				cost, err := t.Insert(t.RandomPeer(), gen.NextKey(), nil)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		ins.Add(float64(size), i)
		del.Add(float64(size), d)
		chordIns.Add(float64(size), ci)
		mwIns.Add(float64(size), mi)
	}
	return Result{
		ID:     "8c",
		Title:  "Cost of insert and delete operations",
		XLabel: "network size",
		Series: []stats.Series{ins, del, chordIns, mwIns},
		Notes: []string{
			"BATON insert and delete cost O(log N) messages, slightly above CHORD (the 1.44 factor of the balanced-tree height) and far below the multiway tree.",
		},
	}
}

// FigureD reproduces Figure 8(d): the average number of messages per
// exact-match query for BATON, CHORD and the multiway tree.
func FigureD(opt Options) Result {
	opt = opt.normalised()
	baton := stats.Series{Label: "baton"}
	chordS := stats.Series{Label: "chord"}
	mw := stats.Series{Label: "multiway"}
	for _, size := range opt.Sizes {
		items := opt.DataPerNode * size / 10
		b := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*401
			nw, keys := batonNetwork(size, seed, items, workload.Uniform, core.LoadBalanceConfig{})
			gen := workload.NewGenerator(workload.Config{Seed: seed + 9})
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				var k = gen.NextKey()
				if len(keys) > 0 && rng.Float64() < 0.8 {
					k = keys[rng.Intn(len(keys))]
				}
				_, _, cost, err := nw.SearchExact(nw.RandomPeer(), k)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		c := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*409
			ring, keys := chordRing(size, seed, items)
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for q := 0; q < opt.Queries && len(keys) > 0; q++ {
				_, cost, err := ring.Lookup(ring.RandomNode(), keys[rng.Intn(len(keys))])
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		m := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*419
			t, keys := multiwayTree(size, seed, items)
			rng := rand.New(rand.NewSource(seed))
			var acc stats.Accumulator
			for q := 0; q < opt.Queries && len(keys) > 0; q++ {
				_, _, cost, err := t.SearchExact(t.RandomPeer(), keys[rng.Intn(len(keys))])
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		baton.Add(float64(size), b)
		chordS.Add(float64(size), c)
		mw.Add(float64(size), m)
	}
	return Result{
		ID:     "8d",
		Title:  "Cost of exact match queries",
		XLabel: "network size",
		Series: []stats.Series{baton, chordS, mw},
		Notes: []string{
			"BATON answers exact queries in O(log N) messages, close to CHORD; the multiway tree is substantially more expensive.",
		},
	}
}

// FigureE reproduces Figure 8(e): the average number of messages per range
// query. CHORD is omitted because hashing destroys key order (the paper
// makes the same point).
func FigureE(opt Options) Result {
	opt = opt.normalised()
	baton := stats.Series{Label: "baton"}
	mw := stats.Series{Label: "multiway"}
	for _, size := range opt.Sizes {
		items := opt.DataPerNode * size / 10
		b := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*501
			nw, _ := batonNetwork(size, seed, items, workload.Uniform, core.LoadBalanceConfig{})
			gen := workload.NewGenerator(workload.Config{Seed: seed + 11})
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				r := gen.RangeQuery(opt.RangeSelectivity)
				_, cost, err := nw.SearchRange(nw.RandomPeer(), r)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		m := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*509
			t, _ := multiwayTree(size, seed, items)
			gen := workload.NewGenerator(workload.Config{Seed: seed + 11})
			var acc stats.Accumulator
			for q := 0; q < opt.Queries; q++ {
				r := gen.RangeQuery(opt.RangeSelectivity)
				_, cost, err := t.SearchRange(t.RandomPeer(), r)
				if err != nil {
					panic(err)
				}
				acc.AddInt(cost.Messages)
			}
			return acc.Mean()
		})
		baton.Add(float64(size), b)
		mw.Add(float64(size), m)
	}
	return Result{
		ID:     "8e",
		Title:  "Cost of range queries",
		XLabel: "network size",
		Series: []stats.Series{baton, mw},
		Notes: []string{
			"Range queries cost O(log N + X) messages where X is the number of peers intersecting the range; CHORD cannot answer them at all.",
		},
	}
}

// FigureF reproduces Figure 8(f): the access load (messages handled per
// peer) at each tree level, separately for inserts and exact searches.
func FigureF(opt Options) Result {
	opt = opt.normalised()
	size := opt.Sizes[len(opt.Sizes)-1]
	insert := stats.Series{Label: "insert load/peer"}
	search := stats.Series{Label: "search load/peer"}
	inserts := opt.DataPerNode * size / 10
	if inserts < opt.Queries {
		inserts = opt.Queries
	}
	// Load balancing is part of the system under test: without it the
	// high-level peers keep the large ranges they were born with and attract
	// a proportionate share of the traffic; with it the ranges adapt to the
	// data and the per-peer load flattens (this is what Figure 8(f) shows).
	lb := core.LoadBalanceConfig{OverloadThreshold: maxInt(4, 2*inserts/size)}
	nw, keys := batonNetwork(size, opt.Seed, 0, workload.Uniform, lb)
	// Discard the load generated while building the network.
	nw.LevelLoad().Reset()
	gen := workload.NewGenerator(workload.Config{Seed: opt.Seed + 13})
	allKeys := keys
	for i := 0; i < inserts; i++ {
		k := gen.NextKey()
		allKeys = append(allKeys, k)
		if _, err := nw.Insert(nw.RandomPeer(), k, nil); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for q := 0; q < opt.Queries*4; q++ {
		k := allKeys[rng.Intn(len(allKeys))]
		if _, _, _, err := nw.SearchExact(nw.RandomPeer(), k); err != nil {
			panic(err)
		}
	}
	load := nw.LevelLoad()
	for _, level := range load.Levels() {
		peers := len(nw.PeerAtLevel(level))
		if peers == 0 {
			continue
		}
		insert.Add(float64(level), float64(load.Load(stats.OpInsert, level))/float64(peers))
		search.Add(float64(level), float64(load.Load(stats.OpSearchExact, level))/float64(peers))
	}
	return Result{
		ID:     "8f",
		Title:  "Access load of peers at different tree levels",
		XLabel: "tree level",
		Series: []stats.Series{insert, search},
		Notes: []string{
			"Insert load per peer is roughly constant across levels; search load is slightly higher at the deepest levels than at the root, so the root is not a hot spot.",
		},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FigureG reproduces Figure 8(g): the cumulative number of load balancing
// messages as insertions proceed, for uniform and Zipf(1.0)-skewed data.
func FigureG(opt Options) Result {
	opt = opt.normalised()
	size := opt.Sizes[0]
	totalInserts := opt.DataPerNode * size
	checkpoints := 10
	lb := core.LoadBalanceConfig{OverloadThreshold: opt.LoadBalanceThreshold}

	runOne := func(dist workload.Distribution, label string) stats.Series {
		s := stats.Series{Label: label}
		nw, _ := batonNetwork(size, opt.Seed, 0, workload.Uniform, lb)
		gen := workload.NewGenerator(workload.Config{Distribution: dist, ZipfTheta: 1.0, Seed: opt.Seed + 17})
		per := totalInserts / checkpoints
		for c := 1; c <= checkpoints; c++ {
			for i := 0; i < per; i++ {
				if _, err := nw.Insert(nw.RandomPeer(), gen.NextKey(), nil); err != nil {
					panic(err)
				}
			}
			s.Add(float64(c*per), float64(nw.LoadBalanceStats().Messages))
		}
		return s
	}

	uniform := runOne(workload.Uniform, "uniform data")
	skewed := runOne(workload.Zipf, "zipf(1.0) data")
	return Result{
		ID:     "8g",
		Title:  "Load balancing messages vs. number of insertions",
		XLabel: "insertions",
		Series: []stats.Series{uniform, skewed},
		Notes: []string{
			"Load balancing cost grows roughly linearly with the number of insertions and is far higher for skewed data, while remaining a small per-insertion overhead.",
		},
	}
}

// FigureH reproduces Figure 8(h): the distribution of the number of peers
// involved in a single load balancing operation (how far the forced
// insertion/deletion had to shift).
func FigureH(opt Options) Result {
	opt = opt.normalised()
	size := opt.Sizes[0]
	lb := core.LoadBalanceConfig{OverloadThreshold: opt.LoadBalanceThreshold}
	nw, _ := batonNetwork(size, opt.Seed, 0, workload.Uniform, lb)
	gen := workload.NewGenerator(workload.Config{Distribution: workload.Zipf, ZipfTheta: 1.0, Seed: opt.Seed + 19})
	totalInserts := opt.DataPerNode * size
	for i := 0; i < totalInserts; i++ {
		if _, err := nw.Insert(nw.RandomPeer(), gen.NextKey(), nil); err != nil {
			panic(err)
		}
	}
	shifts := nw.LoadBalanceStats().ShiftSizes
	var total, sum int64
	for n, c := range shifts {
		total += c
		sum += int64(n) * c
	}
	count := stats.Series{Label: "operations"}
	fraction := stats.Series{Label: "fraction"}
	for _, n := range slices.Sorted(maps.Keys(shifts)) {
		count.Add(float64(n), float64(shifts[n]))
		fraction.Add(float64(n), float64(shifts[n])/float64(total))
	}
	return Result{
		ID:     "8h",
		Title:  "Number of peers involved in one load balancing operation",
		XLabel: "peers involved",
		Series: []stats.Series{count, fraction},
		Notes: []string{
			"The distribution decays steeply: almost all load balancing operations involve only a handful of peers, long shifts are rare (the paper calls the distribution 'strongly exponential').",
			fmt.Sprintf("observed %d load balancing operations, mean size %.2f", total, float64(sum)/float64(max(total, 1))),
		},
	}
}

// FigureI reproduces Figure 8(i): the extra messages caused by concurrent
// joins and leaves. A batch of membership changes is executed against stale
// routing knowledge (the affected peers are marked "in flight"), queries are
// issued while the batch is in progress, and the redirect messages incurred
// are reported per operation.
func FigureI(opt Options) Result {
	opt = opt.normalised()
	size := opt.Sizes[0]
	extra := stats.Series{Label: "extra messages/op"}
	batchSizes := []int{4, 8, 16, 32, 64, 128}
	for _, batch := range batchSizes {
		v := averageOver(opt.Runs, func(run int) float64 {
			seed := opt.Seed + int64(run)*601
			nw, keys := batonNetwork(size, seed, opt.DataPerNode*size/10, workload.Uniform, core.LoadBalanceConfig{})
			rng := rand.New(rand.NewSource(seed))
			// Half the batch joins, half leaves; all of them are marked in
			// flight until the batch completes.
			var joined []core.PeerID
			for i := 0; i < batch/2; i++ {
				ids := nw.PeerIDs()
				id, _, err := nw.Join(ids[rng.Intn(len(ids))])
				if err != nil {
					panic(err)
				}
				nw.SetInflight(id, true)
				joined = append(joined, id)
			}
			var leaving []core.PeerID
			ids := nw.PeerIDs()
			for i := 0; i < batch/2; i++ {
				id := ids[rng.Intn(len(ids))]
				nw.SetInflight(id, true)
				leaving = append(leaving, id)
			}
			// Issue queries while the network's knowledge is stale.
			extraTotal := 0
			ops := 0
			for q := 0; q < opt.Queries && len(keys) > 0; q++ {
				k := keys[rng.Intn(len(keys))]
				_, _, cost, err := nw.SearchExact(nw.RandomPeer(), k)
				if err != nil {
					panic(err)
				}
				extraTotal += cost.ExtraMessages
				ops++
			}
			nw.ClearInflight()
			return float64(extraTotal) / float64(ops)
		})
		extra.Add(float64(batch), v)
	}
	return Result{
		ID:     "8i",
		Title:  "Extra messages caused by concurrent joins and leaves",
		XLabel: "concurrent joins/leaves",
		Series: []stats.Series{extra},
		Notes: []string{
			"The more peers join or leave at the same time, the more messages are forwarded through stale routing state and must be redirected.",
		},
	}
}
