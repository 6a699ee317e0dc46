package main

import (
	"math/rand"

	"sync"
	"time"

	"mvkv/internal/core"
	"mvkv/internal/kv"
	"mvkv/internal/kvnet"
	"mvkv/internal/obs"
)

// remote-pipelined: the store served by kvnet.Server over loopback, with a
// key set that fits the hot cache, driven through one pipelined TCP
// connection. Wire encode/decode, tagged-frame demux, flush coalescing and
// server dispatch dominate; the core does little. Phase 1 is a closed loop
// at a fixed in-flight depth and gives ops_per_s. Phase 2 is an open loop
// at one fixed offered rate well below that and gives the latencies, timed
// from each request's due time: a closed loop's latency would only be its
// in-flight depth divided by its throughput.
type remoteParams struct {
	keys      int
	depth     int     // phase 1 in-flight slots; each is one model client
	roundOps  int     // operations per slot (phase 1) or worker (phase 2) round
	inserts   int     // of which Inserts to the slot's own keys
	findAt    int     // of which Finds at an older sealed tag
	tagEvery  int     // slot 0 (worker 0) seals a Tag every tagEvery operations
	workers   int     // phase 2 senders
	rate      float64 // phase 2 offered operations per second
	share     float64 // phase 1's share of the timed seconds
	slotRate  float64 // phase 1 nominal rounds per second per slot
	warm      int     // untimed warm-up rounds before each phase
	snapshots int
	setups    int
}

func remoteDefaults(small bool) remoteParams {
	p := remoteParams{
		keys: 2048, depth: 32, roundOps: 200, inserts: 20, findAt: 10, tagEvery: 100,
		workers: 8, rate: 4000, share: 0.4, slotRate: 11, warm: 1, snapshots: 8, setups: 3,
	}
	if small {
		p.keys, p.rate, p.slotRate, p.setups = 512, 20000, 1, 1
	}
	return p
}

type remoteEnv struct {
	store  *core.Store
	server *kvnet.Server
	client *kvnet.Client
}

func (e remoteEnv) close() {
	e.client.Close()
	e.server.Close()
	e.store.Close()
}

func runRemote(cfg runConfig) (*report, error) {
	p := remoteDefaults(cfg.small)
	var serverLane *lane
	if cfg.tr != nil {
		serverLane = cfg.tr.newLane(true)
	}
	build := func() (remoteEnv, error) {
		s, err := core.Create(core.Options{ArenaBytes: 64 << 20})
		if err != nil {
			return remoteEnv{}, err
		}
		if err := preload(s, p.keys); err != nil {
			s.Close()
			return remoteEnv{}, err
		}
		var served kv.Store = s
		switch {
		case cfg.wrap != nil:
			served = cfg.wrap(s)
		case serverLane != nil:
			served = &tracedStore{inner: s, ln: serverLane, rank: -1}
		}
		srv, err := kvnet.ServeOptions(served, "127.0.0.1:0", kvnet.ServerOptions{})
		if err != nil {
			s.Close()
			return remoteEnv{}, err
		}
		cl, err := kvnet.DialOptions(srv.Addr(), kvnet.Options{Pipeline: true, MaxConns: 1, MaxInFlight: 64})
		if err != nil {
			srv.Close()
			s.Close()
			return remoteEnv{}, err
		}
		if err := cl.Ping(); err != nil {
			remoteEnv{s, srv, cl}.close()
			return remoteEnv{}, err
		}
		return remoteEnv{s, srv, cl}, nil
	}
	env, setups, err := timeSetups(p.setups, build, remoteEnv.close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	// Model capacity: phase 1 runs warm + segments*chunk rounds per slot;
	// phase 2 as many requests per sender as its share of seconds allows
	// (generously bounded by the whole run at the offered rate).
	rounds1 := p.warm + segments*perChunk(cfg.seconds*p.share, p.slotRate)
	reqs2 := (p.warm+1)*p.roundOps*p.workers + int(cfg.seconds*p.rate)
	logCap := rounds1*p.inserts + reqs2/p.workers*p.inserts/p.roundOps + p.inserts
	m := newModel(p.keys, p.depth, logCap, (rounds1*p.roundOps+reqs2/p.workers)/p.tagEvery+2,
		func(j int) int { return j % p.depth })
	t0 := m.tagBegin()
	m.tagEnd(t0, env.client.Tag())

	views := make([]kv.Store, p.depth+1)
	for c := range views {
		views[c] = kv.Store(env.client)
		if cfg.tr != nil {
			views[c] = &tracedClient{Client: env.client, ln: cfg.tr.newLane(false)}
		}
	}
	netBefore := env.client.ObsSnapshot().Merge(env.server.ObsSnapshot())
	before := env.store.ObsSnapshot()

	// Phase 1: closed loop, depth slots in flight on the one connection.
	type slot struct {
		rng      *rand.Rand
		sched    []opKind
		st, warm clientStats
	}
	slots := make([]*slot, p.depth)
	for c := range slots {
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
		slots[c] = &slot{rng: rng, sched: schedule(rng, map[opKind]int{kInsert: p.inserts, kFindAt: p.findAt}, p.roundOps)}
	}
	own := p.keys / p.depth
	rounds := func(c, n int, st *clientStats) {
		sl := slots[c]
		for r := 0; r < n; r++ {
			for i, op := range sl.sched {
				if c == 0 && i%p.tagEvery == 0 {
					tagOnce(views[c], m, st)
				}
				remoteOp(views[c], m, c, op, sl.rng, p.keys, own, p.depth, st, time.Time{})
			}
		}
	}
	together(p.depth, func(c int) { rounds(c, p.warm, &slots[c].warm) })
	chunk1 := perChunk(cfg.seconds*p.share, p.slotRate)
	chk := views[p.depth]
	var check clientStats
	var snapMs []float64
	ph1 := runPhase(p.depth, func(c, k int) {
		slots[c].st.chunk(k)
		rounds(c, chunk1, &slots[c].st)
	}, func(int) {
		ms, _ := extractTags(chk, m, spreadTags(m, p.snapshots), 1, &check)
		snapMs = append(snapMs, ms...)
	})

	// Phase 2: open loop at a fixed rate. One generator hands requests
	// round-robin to the senders; sender w runs its own copy of the round
	// schedule and acts for the model clients congruent to w, so every key
	// still has one sequential writer. The first round is the warm-up; the
	// timed requests are cut into chunks by their index.
	type request struct {
		due time.Time
		n   int
	}
	interval := time.Duration(float64(time.Second) / p.rate)
	perRound := p.roundOps * p.workers
	warmN := p.warm * perRound
	timedN := max(1, int(cfg.seconds*(1-p.share)*p.rate/float64(perRound)+0.5)) * perRound
	open := make([]clientStats, p.workers)
	warm2 := make([]clientStats, p.workers)
	var lateness hist
	queues := make([]chan request, p.workers)
	for wk := range queues {
		// Room for a whole round per sender: a stalled sender shows as
		// latency from due time, not as a stalled generator.
		queues[wk] = make(chan request, p.roundOps)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < p.workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*104729 + int64(wk)))
			sched := schedule(rng, map[opKind]int{kInsert: p.inserts, kFindAt: p.findAt}, p.roundOps)
			per := p.depth / p.workers
			i := 0
			for rq := range queues[wk] {
				st := &warm2[wk]
				if rq.n >= warmN {
					st = &open[wk]
					st.chunk((rq.n - warmN) * segments / timedN)
				}
				if wk == 0 && i%p.tagEvery == 0 {
					tagOnce(views[wk], m, st)
				}
				op := sched[i%len(sched)]
				i++
				c := wk + p.workers*rng.Intn(per)
				remoteOp(views[wk], m, c, op, rng, p.keys, own, p.depth, st, rq.due)
			}
		}(wk)
	}
	gen := time.Now()
	for n := 0; n < warmN+timedN; n++ {
		due := gen.Add(time.Duration(n) * interval)
		sleepUntil(due)
		lateness.record(time.Since(due))
		queues[n%p.workers] <- request{due, n}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	var ph2 phase
	for k := range ph2.ends {
		ph2.starts[k] = gen.Add(time.Duration(warmN+k*timedN/segments) * interval)
		ph2.ends[k] = gen.Add(time.Duration(warmN+(k+1)*timedN/segments) * interval)
	}
	after := env.store.ObsSnapshot()
	netAfter := env.client.ObsSnapshot().Merge(env.server.ObsSnapshot())
	heap := liveHeapMiB()

	phase1 := newReport(cfg.workload, ph1)
	for _, sl := range slots {
		phase1.add(&sl.st)
	}
	phase2 := newReport(cfg.workload, ph2)
	for wk := range open {
		phase2.add(&open[wk])
	}
	rep := newReport(cfg.workload, ph1)
	rep.setups = setups
	rep.add(&phase1.clientStats)
	rep.add(&phase2.clientStats)
	for _, sl := range slots {
		rep.add(&sl.warm)
	}
	for wk := range warm2 {
		rep.add(&warm2[wk])
	}

	extractTags(chk, m, spreadTags(m, p.snapshots), 1, &check)
	check.ops[kSnapshot].attempted++
	if err := m.checkFinal(chk.ExtractSnapshot(currentVersion)); err != nil {
		check.violate(kSnapshot, "%v", err)
	}
	checkHistories(chk, m, false, &check)
	rep.addChecks(&check)

	writes := rep.succeeded(kInsert)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = phase1.throughput()
	rep.latencies(phase2, phase2)
	rep.chunks = phase1.chunkLines("closed") + phase2.chunkLines("open")
	rep.e2e["snapshot_ms"] = median(snapMs)
	rep.notes = append(rep.notes, "snapshot_ms: "+spreadNote(snapMs))
	d := after.Delta(before)
	rep.e2e["write_amp"] = ratio(float64(d.Counter("pmem.persist.bytes")), 16*float64(writes))
	rep.e2e["heap_peak_mb"] = heap
	rep.extraf("offered_ops_per_s", "ops/s", p.rate)
	rep.extraf("generator_late_p99_us", "us", lateness.p99us())
	if cfg.tr != nil {
		tr := cfg.tr
		fillLayers(rep, tr, d, writes)
		nd := netAfter.Delta(netBefore)
		serverOps := tr.count(spCoreFind) + tr.count(spCoreInsert)
		serverUs := ratio(float64(tr.agg[spCoreFind].total.Load()+tr.agg[spCoreInsert].total.Load())/1e3, float64(serverOps))
		rep.layer["kvnet.call_us"] = tr.meanUs(spNetCall)
		rep.layer["kvnet.server_store_us"] = serverUs
		rep.layer["kvnet.wire_us"] = tr.meanUs(spNetCall) - serverUs
		rep.layer["kvnet.frames_per_flush"] = (histMean(nd, "net.pipe.flush_frames") + histMean(nd, "net.pipe.server.flush_frames")) / 2
		rep.layer["kvnet.generator_late_p99_us"] = lateness.p99us()
	}
	return rep, nil
}

func histMean(s obs.Snapshot, name string) float64 {
	h := s.Histograms[name]
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count)
}

func tagOnce(s kv.Store, m *model, st *clientStats) {
	st.ops[kTag].attempted++
	i := m.tagBegin()
	m.tagEnd(i, s.Tag())
	st.s().ok++
}

// remoteOp runs one scheduled operation for model client c: a Find of a
// uniform key, a Find at a sealed tag, or an Insert to one of c's keys.
func remoteOp(s kv.Store, m *model, c int, op opKind, rng *rand.Rand, keys, own, owners int, st *clientStats, due time.Time) {
	switch op {
	case kInsert:
		writeOne(s, m, c, c+owners*rng.Intn(own), st, kInsert, due)
	case kFindAt:
		readAt(s, m, c, rng.Intn(keys), rng, st, due)
	default:
		readCurrent(s, m, c, rng.Intn(keys), st, kFind, due)
	}
}

// tracedClient times the benchmark's calls into the kvnet client.
type tracedClient struct {
	*kvnet.Client
	ln *lane
}

func (t *tracedClient) Find(key, version uint64) (uint64, bool) {
	mk := t.ln.begin(spNetCall)
	v, ok := t.Client.Find(key, version)
	t.ln.end(mk)
	return v, ok
}

func (t *tracedClient) Insert(key, value uint64) error {
	mk := t.ln.begin(spNetCall)
	err := t.Client.Insert(key, value)
	t.ln.end(mk)
	return err
}
