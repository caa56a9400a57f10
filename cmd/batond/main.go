// Command batond hosts peers of a live BATON overlay in their own OS
// process, connected to the rest of the cluster over the TCP wire
// transport (internal/transport). It runs in one of two roles:
//
//   - Coordinator: -listen makes this process the overlay's head. It grows
//     a cluster of -peers locally (optionally preloading -items uniformly
//     distributed items), listens for daemons, and owns every structural
//     operation — joins of remote peers, departures, crash repair, load
//     balancing, audits.
//   - Daemon: -seed dials a running coordinator and joins the live overlay,
//     hosting -peers additional peers in this process. The daemon serves
//     its share of the keyspace (gets, puts, ranges, bulk, replication all
//     cross the wire as needed) until it is interrupted or the seed
//     connection drops.
//
// Usage:
//
//	batond -listen 127.0.0.1:7331 -peers 8 -items 10000   # coordinator
//	batond -seed 127.0.0.1:7331 -peers 4                  # daemon
//
// Drive a workload through the running cluster with
//
//	batonsim -mode run -transport tcp -seedaddr 127.0.0.1:7331
//
// which attaches as a pure data-plane client. See examples/multiprocess
// for the full walkthrough.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"baton/internal/core"
	"baton/internal/p2p"
	"baton/internal/workload"
)

func main() {
	var (
		listen = flag.String("listen", "", "coordinator role: address to listen on (host:port; :0 picks a free port)")
		seed   = flag.String("seed", "", "daemon role: address of a running coordinator to join")
		peers  = flag.Int("peers", 4, "peers hosted in this process")
		items  = flag.Int("items", 0, "coordinator role: items preloaded into the overlay before listening")
		fanout = flag.Int("fanout", 2, "coordinator role: overlay tree fanout m (2 = binary BATON, >2 = BATON*)")
		rseed  = flag.Int64("rngseed", 1, "coordinator role: random seed for the initial topology and preload")
	)
	flag.Parse()
	if err := validateFlags(*listen, *seed); err != nil {
		fatal(err)
	}

	var c *p2p.Cluster
	var err error
	if *listen != "" {
		c, err = startCoordinator(*listen, *peers, *items, *fanout, *rseed)
	} else {
		c, err = p2p.JoinRemote(*seed, *peers)
		if err == nil {
			fmt.Printf("batond: joined overlay via %s, hosting %d peers (cluster size %d)\n", *seed, *peers, c.Size())
		}
	}
	if err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("batond: %v, shutting down\n", s)
	case <-c.SeedDown(): // nil (blocks forever) for the coordinator
		fmt.Fprintln(os.Stderr, "batond: seed connection lost, shutting down")
		c.Stop()
		os.Exit(1)
	}
	c.Stop()
}

// startCoordinator grows the initial overlay in-process, preloads it, and
// opens the listener. The listen address is printed on stdout so scripts
// can scrape the bound port when :0 was asked for.
func startCoordinator(listen string, peers, items, fanout int, seed int64) (*p2p.Cluster, error) {
	if fanout != 0 && !core.ValidFanout(fanout) {
		return nil, fmt.Errorf("invalid -fanout %d (want 2..%d)", fanout, core.MaxFanout)
	}
	nw := core.NewNetwork(core.Config{Seed: seed, Fanout: fanout})
	rng := rand.New(rand.NewSource(seed))
	for nw.Size() < peers {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			return nil, fmt.Errorf("growing initial overlay: %w", err)
		}
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed + 1, Distribution: workload.Uniform})
	for _, k := range gen.Keys(items) {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			return nil, fmt.Errorf("preloading items: %w", err)
		}
	}
	c, err := p2p.NewClusterListen(nw, listen)
	if err != nil {
		return nil, err
	}
	fmt.Printf("batond: coordinator listening on %s (%d peers, %d items, fanout %d)\n",
		c.Addr(), peers, items, max(2, fanout))
	return c, nil
}

// validateFlags enforces the role split: exactly one of -listen and -seed,
// and the coordinator-only knobs are rejected in daemon role rather than
// silently ignored (the batonsim strict-flag convention).
func validateFlags(listen, seed string) error {
	if (listen == "") == (seed == "") {
		return fmt.Errorf("exactly one of -listen (coordinator) or -seed (daemon) is required")
	}
	if seed == "" {
		return nil
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "items", "fanout", "rngseed":
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("daemon role (-seed) ignores flag(s) %v: the coordinator owns the topology and the data preload", bad)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "batond:", err)
	os.Exit(1)
}
