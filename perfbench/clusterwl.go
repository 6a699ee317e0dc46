package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mvkv/internal/cluster"
	"mvkv/internal/core"
	"mvkv/internal/dist"
	"mvkv/internal/kv"
	"mvkv/internal/obs"
)

// cluster-gather: four in-process ranks over LocalFabric with a zero
// NetModel (no injected spin or sleep), driven from rank 0 through
// dist.ClusterStore. Routing, transport, owner-side reply dedupe and the
// k-way merge of the distributed snapshot do the work.
type clusterParams struct {
	ranks     int
	keys      int
	batches   int     // scatter batches per round
	batchSize int     // distinct keys per batch
	finds     int     // routed Finds per round
	rate      float64 // nominal rounds per second
	warm      int     // untimed warm-up rounds
	setups    int
}

func clusterDefaults(small bool) clusterParams {
	p := clusterParams{ranks: 4, keys: 1 << 15, batches: 4, batchSize: 4096, finds: 512, rate: 24, warm: 2, setups: 3}
	if small {
		p.keys, p.batches, p.batchSize, p.finds, p.rate, p.setups = 2048, 4, 256, 64, 1, 1
	}
	return p
}

type clusterEnv struct {
	cs      *dist.ClusterStore
	stores  []*core.Store
	ranks   []*tracedStore // traced runs only
	release chan struct{}
	done    chan error
}

func (e *clusterEnv) close() error {
	err := e.cs.Close()
	close(e.release)
	if werr := <-e.done; err == nil {
		err = werr
	}
	return err
}

func buildCluster(cfg runConfig, p clusterParams, msgs, bytes *atomic.Uint64) (*clusterEnv, error) {
	env := &clusterEnv{
		stores:  make([]*core.Store, p.ranks),
		ranks:   make([]*tracedStore, p.ranks),
		release: make(chan struct{}),
		done:    make(chan error, 1),
	}
	ready := make(chan *dist.ClusterStore, 1)
	failed := make(chan error, p.ranks)
	var wrap func(rank int, tr cluster.Transport) cluster.Transport
	var rankLanes []*lane
	if cfg.tr != nil {
		rankLanes = make([]*lane, p.ranks)
		for r := range rankLanes {
			rankLanes[r] = cfg.tr.newLane(true)
		}
		wrap = func(rank int, tr cluster.Transport) cluster.Transport {
			return &countingTransport{inner: tr, ln: rankLanes[rank], msgs: msgs, bytes: bytes}
		}
	}
	go func() {
		env.done <- cluster.RunLocalWrap(p.ranks, cluster.NetModel{}, wrap, func(c *cluster.Comm) error {
			r := c.Rank()
			// Four ranks share the host's cores, so each extracts and
			// merges on one thread.
			st, err := core.Create(core.Options{ArenaBytes: 64 << 20, ExtractThreads: 1})
			if err != nil {
				failed <- err
				return err
			}
			defer st.Close()
			env.stores[r] = st
			var local kv.Store = st
			switch {
			case cfg.wrap != nil:
				local = cfg.wrap(st)
			case cfg.tr != nil:
				env.ranks[r] = &tracedStore{inner: st, ln: rankLanes[r], rank: r, size: p.ranks}
				local = env.ranks[r]
			}
			if err := preloadOwned(st, p.keys, r, p.ranks); err != nil {
				failed <- err
				return err
			}
			svc := dist.New(c, local, 1)
			if r != 0 {
				return svc.ServeAll()
			}
			ready <- dist.NewClusterStore(svc)
			<-env.release
			return nil
		})
	}()
	select {
	case env.cs = <-ready:
		return env, nil
	case err := <-failed:
		return nil, err
	}
}

// preloadOwned writes the preload of the keys rank r owns straight into
// its local store; every rank stays at version 0, so the ranks start in
// version lockstep.
func preloadOwned(s kv.Store, keys, r, ranks int) error {
	var pairs []kv.KV
	for j := 0; j < keys; j++ {
		if dist.Owner(keyOf(j), ranks) == r {
			pairs = append(pairs, kv.KV{Key: keyOf(j), Value: preloadValue(j)})
		}
	}
	return kv.InsertBatch(s, pairs)
}

func runCluster(cfg runConfig) (*report, error) {
	p := clusterDefaults(cfg.small)
	var msgs, bytes atomic.Uint64
	build := func() (*clusterEnv, error) { return buildCluster(cfg, p, &msgs, &bytes) }
	env, setups, err := timeSetups(p.setups, build, func(e *clusterEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()

	chunk := perChunk(cfg.seconds, p.rate)
	total := p.warm + segments*chunk
	m := newModel(p.keys, 1, total*p.batches*p.batchSize, total+1, func(int) int { return 0 })
	var ln *lane
	var view kv.Store = env.cs
	if cfg.tr != nil {
		ln = cfg.tr.newLane(false)
		view = &tracedCluster{ClusterStore: env.cs, ln: ln}
	}
	t0 := m.tagBegin()
	v0, err := env.cs.TagErr()
	if err != nil {
		return nil, err
	}
	m.tagEnd(t0, v0)

	before := sumSnapshots(env.stores)
	msgs.Store(0)
	bytes.Store(0)
	rng := rand.New(rand.NewSource(cfg.seed))
	batch := make([]kv.KV, p.batchSize)
	idx := make([]uint32, p.batchSize)
	seen := make([]int32, p.keys)
	var snapMs []float64
	var slowest time.Duration
	var warm, st clientStats
	findEvery := p.finds / p.batches
	round := func(rounds int, st *clientStats, timed bool) error {
		for b := 0; b < p.batches; b++ {
			stamp := int32(rounds*p.batches + b + 1)
			for i := range batch {
				j := rng.Intn(p.keys)
				for seen[j] == stamp {
					j = rng.Intn(p.keys)
				}
				seen[j] = stamp
				v, x := m.begin(0, j)
				batch[i], idx[i] = kv.KV{Key: keyOf(j), Value: v}, x
			}
			st.ops[kScatter].attempted++
			t := time.Now()
			err := view.(kv.BulkStore).InsertBatch(batch)
			d := time.Since(t)
			for i := len(batch) - 1; i >= 0; i-- {
				j, _ := keyIndex(batch[i].Key, p.keys)
				if err != nil {
					m.fail(0, j, idx[i])
				} else {
					m.ack(0, j, idx[i])
				}
			}
			m.settle(0)
			if err != nil {
				st.fail(kScatter, err)
			} else {
				sg := st.s()
				sg.write.record(d)
				sg.ok++
			}
			for f := 0; f < findEvery; f++ {
				readCurrent(view, m, 0, rng.Intn(p.keys), st, kFind, time.Time{})
			}
		}
		st.ops[kTag].attempted++
		i := m.tagBegin()
		mk := ln.begin(spDistTag)
		ln.publish()
		ver, err := env.cs.TagErr()
		ln.end(mk)
		if err != nil {
			st.fail(kTag, err)
			return fmt.Errorf("TagAll: %w", err)
		}
		m.tagEnd(i, ver)
		st.s().ok++
		st.ops[kGather].attempted++
		t := time.Now()
		pairs := view.ExtractSnapshot(ver)
		if timed {
			snapMs = append(snapMs, float64(time.Since(t))/1e6)
		}
		st.s().ok++
		if cfg.tr != nil && timed {
			var worst int64
			for _, rs := range env.ranks {
				worst = max(worst, rs.lastExtract.Load())
			}
			slowest += time.Duration(worst)
		}
		if err := m.checkSnapshot(i, pairs); err != nil {
			st.violate(kGather, "%v", err)
		}
		return nil
	}
	for r := 0; r < p.warm; r++ {
		if err := round(r, &warm, false); err != nil {
			return nil, err
		}
	}
	var failed error
	rounds := p.warm
	ph := runPhase(1, func(_, k int) {
		st.chunk(k)
		for r := 0; r < chunk && failed == nil; r++ {
			failed = round(rounds, &st, true)
			rounds++
		}
	}, nil)
	if failed != nil {
		return nil, failed
	}
	rep := newReport(cfg.workload, ph)
	rep.setups = setups
	after := sumSnapshots(env.stores)
	sent, sentBytes := msgs.Load(), bytes.Load()
	rep.add(&st)
	rep.add(&warm)
	heap := liveHeapMiB()

	var check clientStats
	for r, s := range env.stores {
		var local kv.Store = s
		if cfg.wrap != nil {
			local = cfg.wrap(s)
		}
		checkOwnedHistories(local, m, r, p.ranks, &check)
	}
	rep.addChecks(&check)
	closed = true
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("cluster shutdown: %w", err)
	}

	writes := rep.succeeded(kScatter) * uint64(p.batchSize)
	ops := rep.succeeded(kScatter, kFind, kTag, kGather)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = rep.throughput()
	rep.latencies(rep, rep)
	rep.chunks = rep.chunkLines("chunk")
	rep.e2e["snapshot_ms"] = median(snapMs)
	rep.notes = append(rep.notes, "snapshot_ms: "+spreadNote(snapMs))
	d := after.Delta(before)
	rep.e2e["write_amp"] = ratio(float64(d.Counter("pmem.persist.bytes")), 16*float64(writes))
	rep.e2e["heap_peak_mb"] = heap
	rep.extraf("rounds", "count", float64(rounds))
	if tr := cfg.tr; tr != nil {
		fillLayers(rep, tr, d, writes)
		ownerUs := tr.meanUs(spCoreFindOwner)
		rep.layer["core.find_us"] = ownerUs
		rep.layer["dist.find_us"] = tr.meanUs(spDistFind)
		rep.layer["dist.owner_find_us"] = ownerUs
		rep.layer["dist.route_us"] = tr.meanUs(spDistFind) - ownerUs
		rep.layer["dist.scatter_us"] = tr.meanUs(spDistScatter)
		rep.layer["dist.owner_batch_us"] = tr.meanUs(spCoreInsertBatch)
		rep.layer["cluster.msgs_per_op"] = ratio(float64(sent), float64(ops))
		rep.layer["cluster.bytes_per_op"] = ratio(float64(sentBytes), float64(ops))
		rep.layer["cluster.send_us"] = tr.meanUs(spClusterSend)
		gathers := float64(rep.succeeded(kGather))
		rep.layer["dist.rank_extract_ms"] = ratio(float64(slowest)/1e6, gathers)
		rep.layer["merge.gather_ms"] = tr.meanUs(spDistGather)/1e3 - rep.layer["dist.rank_extract_ms"]
	}
	return rep, nil
}

// checkOwnedHistories runs the history check over the keys rank r owns,
// on its local store.
func checkOwnedHistories(s kv.Store, m *model, r, ranks int, st *clientStats) {
	want := make([]uint64, 0, 64)
	for j := 0; j < m.nkeys; j++ {
		if dist.Owner(keyOf(j), ranks) != r {
			continue
		}
		want = m.chain(j, want[:0])
		st.ops[kHistory].attempted++
		if err := matchHistory(s.ExtractHistory(keyOf(j)), want, false); err != nil {
			st.violate(kHistory, "rank %d key %d history: %v", r, keyOf(j), err)
		}
	}
}

// sumSnapshots adds the counters and gauges of several stores' metrics.
func sumSnapshots(stores []*core.Store) obs.Snapshot {
	var out obs.Snapshot
	for _, s := range stores {
		o := s.ObsSnapshot()
		for n, v := range o.Counters {
			out.SetCounter(n, out.Counter(n)+v)
		}
		for n, v := range o.Gauges {
			out.SetGauge(n, out.Gauge(n)+v)
		}
	}
	return out
}

// tracedCluster times the benchmark's calls into the ClusterStore and
// makes each the parent of the rank-side spans it causes.
type tracedCluster struct {
	*dist.ClusterStore
	ln *lane
}

func (t *tracedCluster) Find(key, version uint64) (uint64, bool) {
	mk := t.ln.begin(spDistFind)
	t.ln.publish()
	v, ok := t.ClusterStore.Find(key, version)
	t.ln.end(mk)
	return v, ok
}

func (t *tracedCluster) InsertBatch(pairs []kv.KV) error {
	mk := t.ln.begin(spDistScatter)
	t.ln.publish()
	err := t.ClusterStore.InsertBatch(pairs)
	t.ln.end(mk)
	return err
}

func (t *tracedCluster) ExtractSnapshot(version uint64) []kv.KV {
	mk := t.ln.begin(spDistGather)
	t.ln.publish()
	out := t.ClusterStore.ExtractSnapshot(version)
	t.ln.end(mk)
	return out
}
