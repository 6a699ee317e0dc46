package main

import (
	"fmt"
	"math/rand"
	"time"

	"mvkv/internal/core"
	"mvkv/internal/kv"
	"mvkv/internal/obs"
	"mvkv/internal/vhistory"
)

// point-zipf: an embedded store whose fixed key set is many times the hot
// cache's 4096 buckets, read by two closed-loop clients with zipf-skewed
// keys. Almost all the work is the read path: skip-list index, hot cache
// (historical reads bypass it) and version-history lookup.
type pointParams struct {
	keys      int     // preloaded keys
	roundOps  int     // operations per client round, tags excluded
	findAt    int     // of which Finds at an older sealed tag
	updates   int     // read-modify-writes of the client's own keys
	scans     int     // ExtractRange scans at the latest sealed tag
	scanLen   int     // keys per scan
	tagEvery  int     // client 0 seals a Tag every tagEvery of its operations
	zipfS     float64 // key skew
	rate      float64 // nominal rounds per second per client
	warm      int     // untimed warm-up rounds per client
	snapshots int     // sealed tags extracted in full after the run
	setups    int
}

func pointDefaults(small bool) pointParams {
	p := pointParams{
		keys: 1 << 16, roundOps: 4000, findAt: 200, updates: 240, scans: 20, scanLen: 100,
		tagEvery: 1000, zipfS: 1.1, rate: 150, warm: 40, snapshots: 8, setups: 3,
	}
	if small {
		p.keys, p.rate, p.warm, p.snapshots, p.setups = 2048, 1, 2, 4, 1
	}
	return p
}

const currentVersion = vhistory.MaxVersion

// schedule returns one round's operation kinds in a seeded order; every
// round of a client replays it, so rounds are identical units of work.
func schedule(rng *rand.Rand, counts map[opKind]int, total int) []opKind {
	s := make([]opKind, 0, total)
	for _, k := range []opKind{kFindAt, kUpdate, kScan, kInsert} {
		for i := 0; i < counts[k]; i++ {
			s = append(s, k)
		}
	}
	for len(s) < total {
		s = append(s, kFind)
	}
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// perm maps zipf ranks to key indexes, so the hot keys are spread over
// the key space and over both clients' halves.
func perm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func preload(s kv.Store, keys int) error {
	const batch = 4096
	pairs := make([]kv.KV, 0, batch)
	for j := 0; j < keys; j++ {
		pairs = append(pairs, kv.KV{Key: keyOf(j), Value: preloadValue(j)})
		if len(pairs) == batch || j == keys-1 {
			if err := kv.InsertBatch(s, pairs); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			pairs = pairs[:0]
		}
	}
	return nil
}

func runPointZipf(cfg runConfig) (*report, error) {
	p := pointDefaults(cfg.small)
	const clients = 2
	build := func() (*core.Store, error) {
		s, err := core.Create(core.Options{ArenaBytes: 128 << 20})
		if err != nil {
			return nil, err
		}
		if err := preload(s, p.keys); err != nil {
			s.Close()
			return nil, err
		}
		return s, nil
	}
	store, setups, err := timeSetups(p.setups, build, func(s *core.Store) { s.Close() })
	if err != nil {
		return nil, err
	}
	defer store.Close()

	chunk := perChunk(cfg.seconds, p.rate)
	rounds := p.warm + segments*chunk
	m := newModel(p.keys, clients, rounds*p.updates, rounds*p.roundOps/p.tagEvery+1, func(j int) int { return j % clients })
	// Model tag 0 seals the preload.
	t0 := m.tagBegin()
	m.tagEnd(t0, store.Tag())

	cls := make([]*pointClient, clients)
	for c := range cls {
		cls[c] = newPointClient(cfg, p, c, viewOf(cfg, store), m)
	}
	together(clients, func(c int) { cls[c].rounds(p.warm, &cls[c].warm) })
	before := store.ObsSnapshot()
	chk := viewOf(cfg, store)
	var check clientStats
	var snapMs []float64
	ph := runPhase(clients, func(c, k int) {
		cls[c].st.chunk(k)
		cls[c].rounds(chunk, &cls[c].st)
	}, func(int) {
		ms, _ := extractTags(chk, m, []uint32{m.done.Load() - 1}, 1, &check)
		snapMs = append(snapMs, ms...)
	})
	after := store.ObsSnapshot()
	heap := liveHeapMiB()
	timed := newReport(cfg.workload, ph)
	rep := newReport(cfg.workload, ph)
	rep.setups = setups
	for _, cl := range cls {
		timed.add(&cl.st)
		rep.add(&cl.st)
		rep.add(&cl.warm)
	}

	// Quiescent checks: sealed snapshots, the current state, the histories.
	extractTags(chk, m, spreadTags(m, p.snapshots), 1, &check)
	check.ops[kSnapshot].attempted++
	if err := m.checkFinal(chk.ExtractSnapshot(currentVersion)); err != nil {
		check.violate(kSnapshot, "%v", err)
	}
	checkHistories(chk, m, false, &check)
	rep.addChecks(&check)

	writes := timed.succeeded(kUpdate)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = timed.throughput()
	rep.latencies(timed, timed)
	rep.chunks = timed.chunkLines("chunk")
	rep.e2e["snapshot_ms"] = median(snapMs)
	rep.notes = append(rep.notes, "snapshot_ms: "+spreadNote(snapMs))
	d := after.Delta(before)
	rep.e2e["write_amp"] = ratio(float64(d.Counter("pmem.persist.bytes")), 16*float64(writes))
	rep.e2e["heap_peak_mb"] = heap
	rep.extraf("scan_p50_us", "us", timed.quantileUs(auxOf, 0.5))
	rep.extraf("scan_p99_us", "us", timed.quantileUs(auxOf, 0.99))
	if cfg.tr != nil {
		fillLayers(rep, cfg.tr, d, writes)
	}
	return rep, nil
}

// viewOf is the store a client calls: the wrapped store in the checkers'
// tests, a per-client traced decorator in a traced run, else the store.
func viewOf(cfg runConfig, s *core.Store) kv.Store {
	switch {
	case cfg.wrap != nil:
		return cfg.wrap(s)
	case cfg.tr != nil:
		return traceStore(s, cfg.tr.newLane(false))
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pointClient is one closed-loop reader; client 0 also seals the tags.
type pointClient struct {
	p        pointParams
	c        int
	s        kv.Store
	m        *model
	rng      *rand.Rand
	pm       []int32
	zipf     *rand.Zipf
	sched    []opKind
	ln       *lane
	st, warm clientStats
}

func newPointClient(cfg runConfig, p pointParams, c int, s kv.Store, m *model) *pointClient {
	rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
	return &pointClient{
		p: p, c: c, s: s, m: m, rng: rng,
		pm:    perm(rand.New(rand.NewSource(cfg.seed)), p.keys),
		zipf:  rand.NewZipf(rng, p.zipfS, 1, uint64(p.keys-1)),
		sched: schedule(rng, map[opKind]int{kFindAt: p.findAt, kUpdate: p.updates, kScan: p.scans}, p.roundOps),
		ln:    laneOf(s),
	}
}

func (cl *pointClient) rounds(n int, st *clientStats) {
	p, s, m, c, rng, ln := cl.p, cl.s, cl.m, cl.c, cl.rng, cl.ln
	for r := 0; r < n; r++ {
		for i, op := range cl.sched {
			if c == 0 && i%p.tagEvery == 0 {
				mk := ln.begin(spBench)
				tagOnce(s, m, st)
				ln.end(mk)
			}
			j := int(cl.pm[cl.zipf.Uint64()])
			mk := ln.begin(spBench)
			switch op {
			case kFind:
				readCurrent(s, m, c, j, st, kFind, time.Time{})
			case kFindAt:
				readAt(s, m, c, j, rng, st, time.Time{})
			case kUpdate:
				// Updates pick the client's own keys uniformly: zipf-hot
				// keys would take most of them and reach the history cap
				// (no GC runs here) on a long enough run.
				j = 2*rng.Intn(p.keys/2) + c
				readCurrent(s, m, c, j, st, kUpdate, time.Time{})
				writeOne(s, m, c, j, st, kUpdate, time.Time{})
			case kScan:
				scanAt(s, m, c, rng.Intn(p.keys-p.scanLen), p.scanLen, st)
			}
			ln.end(mk)
		}
	}
}

// startOf is when an operation's latency starts: its due time in an open
// loop, now in a closed one.
func startOf(due time.Time) time.Time {
	if due.IsZero() {
		return time.Now()
	}
	return due
}

func laneOf(s kv.Store) *lane {
	switch t := s.(type) {
	case *tracedStore:
		return t.ln
	case *tracedClient:
		return t.ln
	}
	return nil
}

// readCurrent is a current-version Find judged against the model: it must
// return a write of the key no older than the last one acknowledged before
// the read began (for the client's own key, its own last write).
func readCurrent(s kv.Store, m *model, c, j int, st *clientStats, k opKind, due time.Time) {
	st.ops[k].attempted++
	infl := m.oldestInflight(c)
	lo := m.last[j].Load()
	t := startOf(due)
	v, ok := s.Find(keyOf(j), currentVersion)
	sg := st.s()
	sg.read.record(time.Since(t))
	if !ok {
		st.violate(k, "key %d absent at the current version", keyOf(j))
		return
	}
	sg.ok++
	verdict := m.checkCurrent(j, v, lo, infl)
	if verdict == vStale && int(m.owner[j]) == c {
		st.staleOwn++
	}
	st.judge(k, verdict, "key %d: read %#x, last acknowledged before the read %#x", keyOf(j), v, lo)
}

// readAt is a Find at a random sealed model tag.
func readAt(s kv.Store, m *model, c, j int, rng *rand.Rand, st *clientStats, due time.Time) {
	st.ops[kFindAt].attempted++
	i := uint32(rng.Int63n(int64(m.done.Load())))
	infl := m.oldestInflight(c)
	t := startOf(due)
	v, ok := s.Find(keyOf(j), m.tagVer[i])
	sg := st.s()
	sg.read.record(time.Since(t))
	sg.ok++
	if !ok {
		st.violate(kFindAt, "key %d absent at tag %d", keyOf(j), m.tagVer[i])
		return
	}
	st.judge(kFindAt, m.checkAt(j, i, v, infl), "key %d at tag %d: read %#x outside the model", keyOf(j), m.tagVer[i], v)
}

// scanAt scans n keys from key index lo at the latest sealed model tag.
func scanAt(s kv.Store, m *model, c, lo, n int, st *clientStats) {
	st.ops[kScan].attempted++
	i := m.done.Load() - 1
	infl := m.oldestInflight(c)
	t := time.Now()
	pairs := s.ExtractRange(keyOf(lo), keyOf(lo+n), m.tagVer[i])
	sg := st.s()
	sg.aux.record(time.Since(t))
	sg.ok++
	v, err := m.checkRange(lo, lo+n, i, pairs, infl)
	if err != nil {
		st.violate(kScan, "%v", err)
		return
	}
	st.judge(kScan, v, "")
}

// writeOne is a single Insert of a fresh model value to key j.
func writeOne(s kv.Store, m *model, c, j int, st *clientStats, k opKind, due time.Time) {
	st.ops[k].attempted++
	v, idx := m.begin(c, j)
	t := startOf(due)
	err := s.Insert(keyOf(j), v)
	d := time.Since(t)
	if err != nil {
		m.fail(c, j, idx)
		st.fail(k, err)
	} else {
		m.ack(c, j, idx)
		sg := st.s()
		sg.write.record(d)
		sg.ok++
	}
	m.settle(c)
}

// extractTags extracts every tag in tags in full, back to back, reps
// times. Each rep is one sample: its mean time per extraction, in
// milliseconds. Every copy is checked against the model afterwards; the
// last rep's snapshots are returned.
func extractTags(s kv.Store, m *model, tags []uint32, reps int, st *clientStats) (ms []float64, last [][]kv.KV) {
	last = make([][]kv.KV, len(tags))
	for r := 0; r < reps; r++ {
		t := time.Now()
		for q, i := range tags {
			last[q] = s.ExtractSnapshot(m.tagVer[i])
		}
		ms = append(ms, float64(time.Since(t))/1e6/float64(len(tags)))
		for q, i := range tags {
			st.ops[kSnapshot].attempted++
			if err := m.checkSnapshot(i, last[q]); err != nil {
				st.violate(kSnapshot, "%v", err)
			}
		}
	}
	return ms, last
}

// spreadTags picks n model tags spread evenly over the run.
func spreadTags(m *model, n int) []uint32 {
	done := int(m.done.Load())
	tags := make([]uint32, n)
	for q := range tags {
		tags[q] = uint32((done - 1) * (q + 1) / n)
	}
	return tags
}

// checkHistories compares every key's version history with the model:
// the preload and then exactly the acknowledged writes, in order. With
// truncated set (version GC ran) a suffix of that chain must remain.
func checkHistories(s kv.Store, m *model, truncated bool, st *clientStats) {
	want := make([]uint64, 0, 64)
	for j := 0; j < m.nkeys; j++ {
		want = m.chain(j, want[:0])
		st.ops[kHistory].attempted++
		ev := s.ExtractHistory(keyOf(j))
		if err := matchHistory(ev, want, truncated); err != nil {
			st.violate(kHistory, "key %d history: %v", keyOf(j), err)
		}
	}
}

func matchHistory(ev []kv.Event, want []uint64, truncated bool) error {
	off := len(want) - len(ev)
	if off < 0 || (!truncated && off != 0) {
		return fmt.Errorf("%d entries, model has %d", len(ev), len(want))
	}
	for i, e := range ev {
		if e.Value != want[off+i] {
			return fmt.Errorf("entry %d is %#x, model has %#x", i, e.Value, want[off+i])
		}
	}
	return nil
}

// fillLayers derives the per-layer metrics every embedded-store workload
// shares from the tracer and the store's metric delta over the run.
func fillLayers(r *report, tr *tracer, d obs.Snapshot, pairs uint64) {
	c := func(n string) float64 { return float64(d.Counter(n)) }
	hits, misses := c("store.cache.hits"), c("store.cache.misses")
	r.layer["core.find_us"] = tr.meanUs(spCoreFind)
	r.layer["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.layer["core.cache_bypass_per_find"] = ratio(c("store.cache.bypass"), c("store.ops.find"))
	r.layer["core.range_us"] = tr.meanUs(spCoreRange)
	r.layer["core.insert_us"] = tr.meanUs(spCoreInsert)
	var stale uint64
	for _, o := range r.ops {
		stale += o.stale
	}
	r.layer["core.stale_own_reads"] = float64(r.staleOwn)
	r.layer["core.stale_other_reads"] = float64(stale - r.staleOwn)
	r.layer["core.gcommit_pairs_per_run"] = ratio(c("store.gc.pairs"), c("store.gc.runs"))
	r.layer["core.gcommit_flush_us"] = float64(d.Histograms["store.gc.flush_latency"].MeanNs()) / 1e3
	r.layer["core.txn_commit_us"] = tr.meanUs(spCoreCommit)
	r.layer["kv.txn_overhead_us"] = tr.selfMeanUs(spKVCommit)
	r.layer["core.txn_conflicts"] = c("store.txn.conflicts")
	r.layer["core.history_full"] = float64(r.ops[kInsert].causes[cHistoryFull] + r.ops[kTxn].causes[cHistoryFull])
	r.layer["core.vgc_pass_ms"] = tr.meanUs(spCoreGC) / 1e3
	r.layer["core.vgc_reclaimed_per_pass"] = ratio(c("store.gc2.entries_reclaimed"), c("store.gc2.passes"))
	r.layer["core.extract_ms"] = tr.meanUs(spCoreSnapshot) / 1e3
	r.layer["pmem.persists_per_pair"] = ratio(c("pmem.persist.calls"), float64(pairs))
	r.layer["pmem.persist_bytes_per_pair"] = ratio(c("pmem.persist.bytes"), float64(pairs))
	r.layer["pmem.freelist_hit_ratio"] = ratio(c("pmem.freelist.hits"), c("pmem.alloc.calls"))
	r.layer["pmem.heap_used_mb"] = float64(d.Gauge("pmem.heap.used_bytes")) / (1 << 20)
}
