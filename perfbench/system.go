package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/store"
)

// valueLen is the size of every stored value. The first eight bytes are
// the key (big-endian) and the rest repeats them, so any value read back
// can be checked against the key it was read under.
const valueLen = 100

// dataset is the seeded, sorted set of distinct keys the benchmark loads,
// with one value per key. Puts overwrite a loaded key with its own value,
// so the key set and every value stay known for the whole run.
type dataset struct {
	keys   []keyspace.Key
	values [][]byte
}

func newDataset(seed uint64, n int) *dataset {
	rng := rand.New(rand.NewPCG(seed, 0x6b6579))
	seen := make(map[keyspace.Key]bool, n)
	keys := make([]keyspace.Key, 0, n)
	span := int64(keyspace.DomainMax - keyspace.DomainMin)
	for len(keys) < n {
		k := keyspace.DomainMin + keyspace.Key(rng.Int64N(span))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ds := &dataset{keys: keys, values: make([][]byte, n)}
	for i, k := range keys {
		ds.values[i] = valueFor(k)
	}
	return ds
}

func valueFor(k keyspace.Key) []byte {
	v := make([]byte, valueLen)
	for i := 0; i+8 <= valueLen; i += 8 {
		binary.BigEndian.PutUint64(v[i:], uint64(k))
	}
	binary.BigEndian.PutUint32(v[valueLen-4:], uint32(k))
	return v
}

// valueMatches reports whether v is the value stored under k.
func valueMatches(k keyspace.Key, v []byte) bool {
	return len(v) == valueLen &&
		binary.BigEndian.Uint64(v) == uint64(k) &&
		binary.BigEndian.Uint32(v[valueLen-4:]) == uint32(k)
}

// countIn is the number of loaded keys inside r.
func (ds *dataset) countIn(r keyspace.Range) int {
	lo := sort.Search(len(ds.keys), func(i int) bool { return ds.keys[i] >= r.Lower })
	hi := sort.Search(len(ds.keys), func(i int) bool { return ds.keys[i] >= r.Upper })
	return hi - lo
}

// overlaySeed grows the same 128-peer tree in every run. Hop counts, and
// with them messages and latency per operation, depend on the tree's
// shape, so a tree drawn from --seed would make those metrics differ by
// seed rather than by code; --seed varies the keys, the values and every
// request instead.
const overlaySeed = 1

// system is one running overlay as the benchmark sees it.
type system struct {
	client *p2p.Cluster   // the cluster the benchmark's clients call
	coord  *p2p.Cluster   // the coordinator: structural ops and audits
	nodes  []*p2p.Cluster // every in-process node, for counters and tracing
	stop   func()
	// ids is the current member list, refreshed after every membership
	// change; clients draw their entry peers from it.
	ids atomic.Pointer[[]core.PeerID]
}

// stopGrace bounds how long stopping the nodes may take.
const stopGrace = 20 * time.Second

// stopWithin stops every node, giving up after d: a stop that does not
// return is reported, and the process exit ends what is left.
func (s *system) stopWithin(d time.Duration) error {
	done := make(chan struct{})
	go func() {
		s.stop()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("stopping the cluster took longer than %v", d)
	}
}

func (s *system) refreshIDs() {
	ids := s.coord.PeerIDs()
	s.ids.Store(&ids)
}

// buildSystem grows the overlay with the simulator's joins, animates it on
// the workload's transport, bulk-loads the dataset through BulkPut and
// waits for every replica. Spans go under parent when tracing.
func buildSystem(w *workload, cfg *config, ds *dataset, sl *spanLog, parent int64) (*system, error) {
	hostHere := numPeers
	if w.wire {
		hostHere = numPeers / 2
	}
	sp := sl.begin("core.grow", parent, 0)
	nw := core.NewNetwork(core.Config{Seed: overlaySeed, Fanout: 2})
	rng := rand.New(rand.NewPCG(overlaySeed, 0x67726f77))
	for nw.Size() < hostHere {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.IntN(len(ids))]); err != nil {
			return nil, fmt.Errorf("grow overlay: %w", err)
		}
	}
	sl.end(sp)

	s := &system{}
	if !w.wire {
		sp = sl.begin("p2p.new_cluster", parent, 0)
		c := p2p.NewCluster(nw)
		sl.end(sp)
		s.client, s.coord, s.nodes, s.stop = c, c, []*p2p.Cluster{c}, c.Stop
	} else {
		sp = sl.begin("p2p.new_cluster_listen", parent, 0)
		head, err := p2p.NewClusterListen(nw, "127.0.0.1:0")
		sl.end(sp)
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		sp = sl.begin("p2p.join_remote_daemon", parent, 0)
		daemon, err := p2p.JoinRemote(head.Addr(), numPeers-hostHere)
		sl.end(sp)
		if err != nil {
			head.Stop()
			return nil, fmt.Errorf("daemon: %w", err)
		}
		sp = sl.begin("p2p.join_remote_client", parent, 0)
		client, err := p2p.JoinRemote(head.Addr(), 0)
		sl.end(sp)
		if err != nil {
			daemon.Stop()
			head.Stop()
			return nil, fmt.Errorf("client: %w", err)
		}
		s.client, s.coord = client, head
		s.nodes = []*p2p.Cluster{head, daemon, client}
		s.stop = func() {
			client.Stop()
			daemon.Stop()
			head.Stop()
		}
	}
	s.client.SetRouteMode(w.route)
	s.refreshIDs()
	if got := len(*s.ids.Load()); got != numPeers {
		s.stop()
		return nil, fmt.Errorf("overlay has %d peers, want %d", got, numPeers)
	}

	sp = sl.begin("p2p.bulk_put", parent, 0)
	err := bulkLoad(s.client, ds)
	sl.end(sp)
	if err == nil {
		sp = sl.begin("p2p.sync_replicas", parent, 0)
		err = s.coord.SyncReplicas()
		sl.end(sp)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// bulkLoad puts every item through BulkPut in batches. Each batch gets
// its own slice: the cluster may keep referring to the items it was given.
func bulkLoad(c *p2p.Cluster, ds *dataset) error {
	const batch = 1024
	for at := 0; at < len(ds.keys); at += batch {
		items := make([]store.Item, 0, batch)
		for i := at; i < min(at+batch, len(ds.keys)); i++ {
			items = append(items, store.Item{Key: ds.keys[i], Value: ds.values[i]})
		}
		res, err := c.BulkPut(items)
		if err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("bulk load key %d: %w", r.Key, r.Err)
			}
		}
	}
	return nil
}
