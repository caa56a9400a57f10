// Throughput: drive the live cluster as a concurrent key-value service.
//
// This example builds a 256-peer overlay, animates it, and then runs three
// workloads back to back:
//
//  1. a closed-loop mixed workload (32 clients, 70% get / 20% put / 10%
//     range) reporting ops/sec and latency percentiles,
//  2. the same workload with peers being killed mid-run, showing that
//     throughput degrades gracefully instead of hanging, and
//  3. a head-to-head of the two range-query modes: the paper's sequential
//     adjacent-chain walk against the parallel fan-out.
//
// Run with:
//
//	go run ./examples/throughput
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"baton/internal/obs"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

func main() {
	cluster, keys, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: 256, Items: 20_000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fmt.Printf("live cluster: %d peers, %d items\n\n", cluster.Size(), len(keys))

	fmt.Println("— mixed workload, healthy cluster —")
	rep := driver.Run(cluster, driver.Config{
		Clients:          32,
		Ops:              20_000,
		GetFraction:      0.7,
		PutFraction:      0.2,
		RangeFraction:    0.1,
		RangeSelectivity: 0.01,
		Keys:             keys,
		Seed:             9,
	})
	fmt.Print(rep.String())

	fmt.Println("\n— same workload while 20 peers are killed mid-run —")
	rep = driver.Run(cluster, driver.Config{
		Clients:          32,
		Ops:              20_000,
		GetFraction:      0.7,
		PutFraction:      0.2,
		RangeFraction:    0.1,
		RangeSelectivity: 0.01,
		Keys:             keys,
		KillPeers:        20,
		Seed:             10,
	})
	fmt.Print(rep.String())

	fmt.Println("\n— range fan-out vs sequential chain walk —")
	ids := cluster.PeerIDs()
	gen := workload.NewGenerator(workload.Config{Seed: 8})
	rng := rand.New(rand.NewSource(11))
	var serial, parallel obs.Histogram
	for i := 0; i < 100; i++ {
		r := gen.RangeQuery(0.15) // ~38 of the 256 peers per query
		via := ids[rng.Intn(len(ids))]
		t0 := time.Now()
		if _, _, err := cluster.RangeSerial(via, r); err == nil {
			serial.Observe(time.Since(t0).Nanoseconds())
		}
		t0 = time.Now()
		if _, _, err := cluster.Range(via, r); err == nil {
			parallel.Observe(time.Since(t0).Nanoseconds())
		}
	}
	s, p := serial.Snapshot(), parallel.Snapshot()
	fmt.Printf("serial chain walk : mean %6.0f µs   p99 %6.0f µs\n", s.Mean()/1e3, float64(s.Percentile(99))/1e3)
	fmt.Printf("parallel fan-out  : mean %6.0f µs   p99 %6.0f µs\n", p.Mean()/1e3, float64(p.Percentile(99))/1e3)
	if m := p.Mean(); m > 0 {
		fmt.Printf("speedup: %.2fx\n", s.Mean()/m)
	}
}
