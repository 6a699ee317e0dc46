package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mvkv/internal/core"
	"mvkv/internal/kv"
	"mvkv/internal/pmem"
)

// ingest-txn: an embedded store on a shadow arena with group commit and
// the emulated 200 ns per-line persist latency. One client issues single
// Inserts over its half of the keys, the other commits 4-key transactions
// over the other half, so the halves never conflict. The write path does
// the work: group-commit dispatcher, the maintenance-lock-serialised
// transaction commit, history appends, persists, version GC; after the
// write phase, extraction of the pinned tags and recovery.
type ingestParams struct {
	keys     int     // both halves together
	inserts  int     // single Inserts per round
	txns     int     // transactions per round
	txnKeys  int     // keys per transaction
	zipfS    float64 // skew of the Insert stream's key counts
	pinEvery int     // transactions between long pins
	gcEvery  int     // transactions between GC passes
	rate     float64 // nominal rounds per second
	warm     int     // untimed warm-up rounds
	setups   int
	arena    int64
}

func ingestDefaults(small bool) ingestParams {
	p := ingestParams{
		keys: 1 << 15, inserts: 4096, txns: 2560, txnKeys: 4, zipfS: 0.8,
		pinEvery: 320, gcEvery: 640, rate: 7, warm: 2, setups: 3, arena: 160 << 20,
	}
	if small {
		// No GC in the checkers' tests: with every entry kept, the history
		// check finds any dropped write, however early.
		p.keys, p.inserts, p.txns, p.pinEvery, p.gcEvery = 2048, 1024, 128, 32, 1<<30
		p.rate, p.warm, p.setups, p.arena = 1, 1, 1, 64<<20
	}
	return p
}

// historyCap is vhistory's per-key append capacity: the set-up fills the
// Insert stream's hottest key to it, so each of that key's Inserts fails
// with ErrHistoryFull, the same number in every round.
const historyCap = 112638

const ingestPersistLatency = 200 * time.Nanosecond

// insertSchedule is one round's Insert keys: zipf-shaped counts over the
// Insert half (rank 0, the capped key 0, gets the largest), with counts
// fixed by the parameters and ranks mapped to keys and ordered by the seed.
func insertSchedule(rng *rand.Rand, p ingestParams) (sched []int32, capped, second int) {
	half := p.keys / 2
	w := make([]float64, half)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -p.zipfS)
		sum += w[r]
	}
	counts := make([]int, half)
	rem := make([]int, half)
	left := p.inserts
	for r := range w {
		exact := w[r] / sum * float64(p.inserts)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
	}
	// Largest remainders take what flooring left, lowest rank first on ties.
	sort.SliceStable(rem, func(a, b int) bool {
		fa := w[rem[a]]/sum*float64(p.inserts) - float64(counts[rem[a]])
		fb := w[rem[b]]/sum*float64(p.inserts) - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	keyOfRank := make([]int32, half)
	for i, v := range rng.Perm(half - 1) {
		keyOfRank[i+1] = int32(v + 1)
	}
	for r, n := range counts {
		for i := 0; i < n; i++ {
			sched = append(sched, keyOfRank[r])
		}
	}
	rng.Shuffle(len(sched), func(a, b int) { sched[a], sched[b] = sched[b], sched[a] })
	return sched, counts[0], counts[1]
}

type ingestEnv struct {
	arena *pmem.Arena
	store *core.Store
}

func ingestOptions() core.Options {
	return core.Options{GroupCommit: true, PersistLatency: ingestPersistLatency}
}

func runIngestTxn(cfg runConfig) (*report, error) {
	p := ingestDefaults(cfg.small)
	const clients = 2
	half := p.keys / 2
	build := func() (ingestEnv, error) {
		a, err := pmem.New(p.arena, pmem.WithShadow(), pmem.WithPersistLatency(ingestPersistLatency))
		if err != nil {
			return ingestEnv{}, err
		}
		s, err := core.CreateInArena(a, ingestOptions())
		if err != nil {
			a.Close()
			return ingestEnv{}, err
		}
		if err := prefill(s, 0, historyCap-1); err != nil {
			s.Close()
			a.Close()
			return ingestEnv{}, err
		}
		if err := preload(s, p.keys); err != nil {
			s.Close()
			a.Close()
			return ingestEnv{}, err
		}
		return ingestEnv{a, s}, nil
	}
	env, setups, err := timeSetups(p.setups, build, func(e ingestEnv) { e.store.Close(); e.arena.Close() })
	if err != nil {
		return nil, err
	}
	defer env.arena.Close()
	store := env.store

	sched, cappedPerRound, second := insertSchedule(rand.New(rand.NewSource(cfg.seed)), p)
	chunk := perChunk(cfg.seconds, p.rate)
	total := p.warm + segments*chunk
	// Only the capped key may reach the history cap.
	if total*second >= historyCap {
		return nil, fmt.Errorf("%d rounds would take a second key past the history cap; use fewer --seconds", total)
	}
	m := newModel(p.keys, clients, total*max(p.inserts, p.txns*p.txnKeys), total*(p.txns/p.pinEvery)+1,
		func(j int) int { return j / half })
	// Prefill and preload together wrote key 0 historyCap times.
	m.preloads[0] = historyCap
	t0 := m.tagBegin()
	m.tagEnd(t0, store.Tag())

	cls := []*ingestClient{
		{p: p, m: m, s: viewOf(cfg, store), sched: sched},
		{p: p, m: m, s: viewOf(cfg, store), c: 1, rng: rand.New(rand.NewSource(cfg.seed*7919 + 1))},
	}
	ic, tc := cls[0], cls[1]
	together(clients, func(c int) {
		cls[c].st = &cls[c].warm
		for r := 0; r < p.warm; r++ {
			cls[c].round()
		}
	})
	chk := viewOf(cfg, store)
	var check clientStats
	var snapMs []float64
	before := store.ObsSnapshot()
	ph := runPhase(clients, func(c, k int) {
		cl := cls[c]
		cl.st = &cl.timed
		cl.st.chunk(k)
		for r := 0; r < chunk; r++ {
			cl.round()
		}
	}, func(int) {
		ms, _ := extractTags(chk, m, tc.pins, 4, &check)
		snapMs = append(snapMs, median(ms))
	})
	after := store.ObsSnapshot()
	heap := liveHeapMiB()
	timed := newReport(cfg.workload, ph)
	rep := newReport(cfg.workload, ph)
	rep.setups = setups
	for _, cl := range cls {
		timed.add(&cl.timed)
		rep.add(&cl.warm)
		rep.add(&cl.timed)
	}
	if want := uint64(ic.rounds * cappedPerRound); rep.ops[kInsert].causes[cHistoryFull] != want {
		rep.violate(kInsert, "%d Inserts failed with ErrHistoryFull, the schedule sends %d to the full key", rep.ops[kInsert].causes[cHistoryFull], want)
	}

	// Quiescent: extract every still-pinned tag in full, check it, then
	// release the pins.
	_, pinned := extractTags(chk, m, tc.pins, 1, &check)
	var final clientStats
	tc.unpinAll(&final)
	rep.add(&final)
	space := store.ObsSnapshot()
	spaceAmp := ratio(float64(space.Gauge("pmem.heap.used_bytes")-space.Gauge("pmem.freelist.resident_bytes")), 16*float64(p.keys))

	// Crash: drop every line not persisted, reopen from what was.
	if err := store.Close(); err != nil {
		return nil, err
	}
	env.arena.Crash()
	if err := env.arena.Recover(); err != nil {
		return nil, err
	}
	t := time.Now()
	s2, err := core.OpenArena(env.arena, ingestOptions())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recovery := time.Since(t)
	defer s2.Close()
	rv := viewOf(cfg, s2)
	for j := 0; j < p.keys; j++ {
		check.ops[kFind].attempted++
		if v, ok := rv.Find(keyOf(j), currentVersion); !ok || v != m.last[j].Load() {
			check.violate(kFind, "after reopen key %d reads (%#x, %v), last acknowledged %#x", keyOf(j), v, ok, m.last[j].Load())
		}
	}
	for n, pin := range tc.pins {
		check.ops[kSnapshot].attempted++
		if got := rv.ExtractSnapshot(m.tagVer[pin]); !equalKVs(got, pinned[n]) {
			check.violate(kSnapshot, "after reopen tag %d differs from before the crash", m.tagVer[pin])
		}
	}
	checkHistories(rv, m, true, &check)
	rep.addChecks(&check)

	pairs := timed.succeeded(kInsert) + uint64(p.txnKeys)*timed.succeeded(kTxn)
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["ops_per_s"] = timed.throughput()
	rep.chunks = timed.chunkLines("chunk")
	rep.latencies(timed, timed)
	rep.e2e["snapshot_ms"] = median(snapMs)
	rep.notes = append(rep.notes, "snapshot_ms: "+spreadNote(snapMs))
	d := after.Delta(before)
	rep.e2e["write_amp"] = ratio(float64(d.Counter("pmem.persist.bytes")), 16*float64(pairs))
	rep.e2e["heap_peak_mb"] = heap
	rep.extraf("commit_p50_us", "us", timed.quantileUs(auxOf, 0.5))
	rep.extraf("commit_p99_us", "us", timed.quantileUs(auxOf, 0.99))
	rep.extraf("recovery_s", "s", recovery.Seconds())
	rep.extraf("space_amp", "ratio", spaceAmp)
	if cfg.tr != nil {
		fillLayers(rep, cfg.tr, d, pairs)
		st := s2.RecoveryStats()
		rep.layer["core.recovery_ms"] = float64(st.Elapsed) / 1e6
		rep.layer["core.recovery_entries"] = float64(st.Entries)
		rep.layer["pmem.heap_used_mb"] = float64(space.Gauge("pmem.heap.used_bytes")) / (1 << 20)
	}
	return rep, nil
}

// prefill appends value preloadValue(j) to key j n times.
func prefill(s kv.Store, j, n int) error {
	const batch = 4096
	pairs := make([]kv.KV, 0, batch)
	for i := 0; i < n; i++ {
		pairs = append(pairs, kv.KV{Key: keyOf(j), Value: preloadValue(j)})
		if len(pairs) == batch || i == n-1 {
			if err := kv.InsertBatch(s, pairs); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			pairs = pairs[:0]
		}
	}
	return nil
}

func equalKVs(a, b []kv.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ingestClient is one of the two writers; rounds are identical units of
// work. Client 0 runs the Insert schedule; client 1 commits transactions,
// takes a long pin every pinEvery of them (releasing the previous round's
// pins as it goes) and runs a GC pass every gcEvery.
type ingestClient struct {
	p     ingestParams
	m     *model
	s     kv.Store
	c     int
	rng   *rand.Rand
	sched []int32
	// st points at the tally of the current phase, warm-up or timed.
	st          *clientStats
	warm, timed clientStats
	rounds      int
	pins        []uint32 // model tags pinned in the latest round
	old         []uint32 // the round before's, released one per new pin
	oldPos      int
	keys        [8]int
	wbuf        [8]uint32
}

func (cl *ingestClient) round() {
	cl.rounds++
	if cl.c == 0 {
		for _, j := range cl.sched {
			writeOne(cl.s, cl.m, 0, int(j), cl.st, kInsert, time.Time{})
		}
		return
	}
	cl.old, cl.pins, cl.oldPos = cl.pins, cl.old[:0], 0
	ln := laneOf(cl.s)
	for n := 1; n <= cl.p.txns; n++ {
		cl.txn(ln)
		if n%cl.p.pinEvery == 0 {
			cl.pin()
			if cl.oldPos < len(cl.old) {
				cl.unpin(cl.old[cl.oldPos], cl.st)
				cl.oldPos++
			}
		}
		if n%cl.p.gcEvery == 0 {
			cl.st.ops[kGC].attempted++
			if _, err := kv.GC(cl.s); err != nil {
				cl.st.fail(kGC, err)
			} else {
				cl.st.s().ok++
			}
		}
	}
}

func (cl *ingestClient) txn(ln *lane) {
	m, p := cl.m, cl.p
	half := p.keys / 2
	for i := 0; i < p.txnKeys; {
		cl.keys[i] = half + cl.rng.Intn(half)
		if !contains(cl.keys[:i], cl.keys[i]) {
			i++
		}
	}
	cl.st.ops[kTxn].attempted++
	txn := kv.Begin(cl.s)
	for i, j := range cl.keys[:p.txnKeys] {
		// Read each key at the transaction's snapshot first: this client
		// is the key's only writer, so it must see its own last write.
		cl.st.ops[kFindAt].attempted++
		infl, lo := m.oldestInflight(cl.c), m.last[j].Load()
		t := time.Now()
		v, ok := txn.Get(keyOf(j))
		sg := cl.st.s()
		sg.read.record(time.Since(t))
		if !ok {
			cl.st.violate(kFindAt, "key %d absent at the transaction's snapshot", keyOf(j))
		} else {
			sg.ok++
			verdict := m.checkCurrent(j, v, lo, infl)
			if verdict == vStale {
				cl.st.staleOwn++
			}
			cl.st.judge(kFindAt, verdict, "key %d at the transaction's snapshot: read %#x, last acknowledged %#x", keyOf(j), v, lo)
		}
		v, idx := m.begin(cl.c, j)
		cl.wbuf[i] = idx
		if err := txn.Set(keyOf(j), v); err != nil {
			panic(err) // a fresh transaction accepts every non-marker value
		}
	}
	mk := ln.begin(spKVCommit)
	t := time.Now()
	_, err := txn.Commit()
	d := time.Since(t)
	ln.end(mk)
	for i, j := range cl.keys[:p.txnKeys] {
		if err != nil {
			m.fail(cl.c, j, cl.wbuf[i])
		} else {
			m.ack(cl.c, j, cl.wbuf[i])
		}
	}
	m.settle(cl.c)
	if err != nil {
		cl.st.fail(kTxn, err)
		return
	}
	sg := cl.st.s()
	sg.aux.record(d)
	sg.ok++
}

func (cl *ingestClient) pin() {
	cl.st.ops[kPin].attempted++
	i := cl.m.tagBegin()
	cl.m.tagEnd(i, kv.AcquireTag(cl.s))
	cl.pins = append(cl.pins, i)
	cl.st.s().ok++
}

func (cl *ingestClient) unpin(i uint32, st *clientStats) {
	st.ops[kUnpin].attempted++
	if err := kv.ReleaseTag(cl.s, cl.m.tagVer[i]); err != nil {
		st.fail(kUnpin, err)
		return
	}
	st.s().ok++
}

// unpinAll releases the latest round's pins after the final extraction;
// every round thus takes and drops the same number of pins.
func (cl *ingestClient) unpinAll(st *clientStats) {
	for _, i := range cl.old[cl.oldPos:] {
		cl.unpin(i, st)
	}
	for _, i := range cl.pins {
		cl.unpin(i, st)
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
