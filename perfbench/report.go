package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"mvkv/internal/cluster"
	"mvkv/internal/dist"
	"mvkv/internal/kv"
	"mvkv/internal/kvnet"
	"mvkv/internal/vhistory"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer
	// small shrinks key counts and rounds for the package's own tests.
	small bool
	// wrap, when set, decorates every store the workload creates (the
	// checkers' tests hand in deliberately faulty stores through it).
	wrap func(s kv.Store) kv.Store
}

type opKind uint8

const (
	kFind opKind = iota
	kFindAt
	kUpdate
	kScan
	kTag
	kInsert
	kTxn
	kPin
	kUnpin
	kGC
	kScatter
	kGather
	kSnapshot
	kHistory
	nKinds
)

var kindNames = [nKinds]string{
	"find", "find_at_tag", "update", "scan", "tag", "insert", "txn_commit",
	"pin", "unpin", "gc", "scatter_batch", "gather", "snapshot", "history",
}

type cause uint8

const (
	cHistoryFull cause = iota
	cConflict
	cTransport
	cOther
	nCauses
)

var causeNames = [nCauses]string{"history_full", "conflict", "transport", "other"}

// classify names the cause of a failed operation.
func classify(err error) cause {
	var ne net.Error
	var pb *dist.PartialBatchError
	var pr *dist.PartialResultError
	var rd cluster.ErrRankDown
	switch {
	case errors.Is(err, vhistory.ErrHistoryFull):
		return cHistoryFull
	case errors.Is(err, kv.ErrConflict):
		return cConflict
	case errors.As(err, &ne), errors.Is(err, io.EOF), errors.Is(err, kvnet.ErrUnknownOutcome),
		errors.Is(err, kvnet.ErrClientClosed), errors.As(err, &pb), errors.As(err, &pr), errors.As(err, &rd):
		return cTransport
	}
	return cOther
}

type opStats struct {
	attempted, failed uint64
	causes            [nCauses]uint64
	// stale counts reads that missed an acknowledged write in a way the
	// store's known visibility fault explains; violations count answers
	// no correct store could give.
	stale, violations uint64
}

// segments is how many chunks a timed phase's fixed work is cut into. The
// end-to-end figures are medians over the chunks, so a burst of outside
// load that hits one or two of them does not move the result.
const segments = 16

// seg is the tally of one chunk: successful operations and their
// latencies. aux holds the one workload-specific latency (point-zipf's
// scans, ingest-txn's commits).
type seg struct {
	ok               uint64
	read, write, aux hist
}

// clientStats is one client's private tally: nothing here is shared, so
// the timed loops update it without synchronisation or allocation.
type clientStats struct {
	ops  [nKinds]opStats
	msgs []string
	// staleOwn counts the stale reads of a client's own keys, the case
	// the visibility fault is known for (a writer missing its own write).
	staleOwn uint64
	segs     [segments]seg
	cur      *seg
}

// chunk directs the tally to chunk k.
func (st *clientStats) chunk(k int) { st.cur = &st.segs[k] }

// s is the current chunk's tally.
func (st *clientStats) s() *seg {
	if st.cur == nil {
		st.cur = &st.segs[0]
	}
	return st.cur
}

func (st *clientStats) fail(k opKind, err error) {
	st.ops[k].failed++
	st.ops[k].causes[classify(err)]++
}

func (st *clientStats) violate(k opKind, format string, args ...any) {
	st.ops[k].violations++
	if len(st.msgs) < 4 {
		st.msgs = append(st.msgs, kindNames[k]+": "+fmt.Sprintf(format, args...))
	}
}

// judge tallies a model verdict for a read of kind k.
func (st *clientStats) judge(k opKind, v verdict, format string, args ...any) {
	switch v {
	case vStale:
		st.ops[k].stale++
	case vBad:
		st.violate(k, format, args...)
	}
}

type extraMetric struct {
	name, unit string
	value      float64
}

// report is a workload's result. Its ops are the timed phase's workload
// operations, whole rounds only; checks are the verification reads run
// after it, which count toward correctness but not toward attempted.
type report struct {
	workload string
	notes    []string
	clientStats
	checks [nKinds]opStats
	ph     phase
	setups []float64
	e2e    map[string]float64
	layer  map[string]float64
	extra  []extraMetric
	chunks string
}

func newReport(workload string, ph phase) *report {
	return &report{workload: workload, ph: ph, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// addChecks folds in a verification tally.
func (r *report) addChecks(st *clientStats) {
	r.mergeChecks(&st.ops)
	r.msgs = append(r.msgs, st.msgs...)
	r.staleOwn += st.staleOwn
}

func (r *report) mergeChecks(ops *[nKinds]opStats) {
	for k := range ops {
		r.checks[k].attempted += ops[k].attempted
		r.checks[k].violations += ops[k].violations
		r.checks[k].stale += ops[k].stale
	}
}

func (r *report) add(st *clientStats) {
	for k := range st.ops {
		a, b := &r.ops[k], &st.ops[k]
		a.attempted += b.attempted
		a.failed += b.failed
		a.stale += b.stale
		a.violations += b.violations
		for c := range a.causes {
			a.causes[c] += b.causes[c]
		}
	}
	for i := range r.segs {
		a, b := &r.segs[i], &st.segs[i]
		a.ok += b.ok
		a.read.merge(&b.read)
		a.write.merge(&b.write)
		a.aux.merge(&b.aux)
	}
	r.msgs = append(r.msgs, st.msgs...)
	r.staleOwn += st.staleOwn
}

// absorb folds the untraced half of a traced run into its accounting, so
// attempted, failed and the checks cover every operation the process
// issued.
func (r *report) absorb(base *report) {
	r.add(&base.clientStats)
	r.mergeChecks(&base.checks)
}

func (r *report) extraf(name, unit string, v float64) {
	r.extra = append(r.extra, extraMetric{name, unit, v})
}

func (r *report) totals() (attempted, failed, violations uint64) {
	for k, o := range r.ops {
		attempted += o.attempted
		failed += o.failed
		violations += o.violations + r.checks[k].violations
	}
	return
}

// succeeded counts the successful operations of the timed phase's kinds.
func (r *report) succeeded(kinds ...opKind) uint64 {
	var n uint64
	for _, k := range kinds {
		n += r.ops[k].attempted - r.ops[k].failed
	}
	return n
}

func (r *report) result(defs []metricDef, vals map[string]float64) resultOut {
	attempted, failed, violations := r.totals()
	out := resultOut{Correct: violations == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s: %.3fs timed\n", r.workload, r.ph.elapsed().Seconds())
	fmt.Fprintf(bw, "%-14s %10s %8s", "op", "attempted", "failed")
	for _, c := range causeNames {
		fmt.Fprintf(bw, " %12s", c)
	}
	fmt.Fprintf(bw, " %8s %10s\n", "stale", "violations")
	for k, o := range r.ops {
		if o.attempted == 0 && o.violations == 0 {
			continue
		}
		fmt.Fprintf(bw, "%-14s %10d %8d", kindNames[k], o.attempted, o.failed)
		for _, c := range o.causes {
			fmt.Fprintf(bw, " %12d", c)
		}
		fmt.Fprintf(bw, " %8d %10d\n", o.stale, o.violations)
	}
	fmt.Fprintf(bw, "%-14s %10s %8s %8s %10s\n", "check", "attempted", "", "stale", "violations")
	for k, o := range r.checks {
		if o.attempted != 0 || o.violations != 0 {
			fmt.Fprintf(bw, "%-14s %10d %8s %8d %10d\n", kindNames[k], o.attempted, "", o.stale, o.violations)
		}
	}
	for _, m := range r.msgs {
		fmt.Fprintf(bw, "VIOLATION %s\n", m)
	}
	for _, n := range r.notes {
		fmt.Fprintf(bw, "%s\n", n)
	}
	if r.chunks != "" {
		fmt.Fprintf(bw, "chunks:\n%s", r.chunks)
	}
	printMetrics(bw, "end-to-end", e2eDefs, r.e2e)
	if len(r.extra) > 0 {
		fmt.Fprintln(bw, "workload-specific:")
		for _, m := range r.extra {
			fmt.Fprintf(bw, "  %-30s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	if len(r.layer) > 0 {
		printMetrics(bw, "per-layer", layerDefs, r.layer)
	}
	bw.Flush()
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// throughput is the median over the chunks of successful operations per
// second.
func (r *report) throughput() float64 {
	var xs []float64
	for i := range r.segs {
		if d := r.ph.dur(i); d > 0 {
			xs = append(xs, float64(r.segs[i].ok)/d.Seconds())
		}
	}
	return median(xs)
}

// quantileUs is the median over the chunks that saw the operation of its
// q-quantile, in microseconds.
func (r *report) quantileUs(pick func(*seg) *hist, q float64) float64 {
	var xs []float64
	for i := range r.segs {
		if h := pick(&r.segs[i]); h.n > 0 {
			xs = append(xs, h.quantile(q)/1e3)
		}
	}
	return median(xs)
}

func us(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }

func readsOf(s *seg) *hist  { return &s.read }
func writesOf(s *seg) *hist { return &s.write }
func auxOf(s *seg) *hist    { return &s.aux }

// chunkLines describes every chunk of the timed phase, so a reader can
// see how steady the run was and which chunk a burst hit.
func (r *report) chunkLines(title string) string {
	var b strings.Builder
	for i := range r.segs {
		s := &r.segs[i]
		fmt.Fprintf(&b, "  %s %2d: %.3fs %9.0f ops/s, read p50/90/99 %.2f/%.2f/%.2f us (%d), write p50/90/99 %.2f/%.2f/%.2f us (%d), other p50 %.2f us (%d)\n",
			title, i, r.ph.dur(i).Seconds(), float64(s.ok)/r.ph.dur(i).Seconds(),
			us(&s.read, 0.5), us(&s.read, 0.9), us(&s.read, 0.99), s.read.n,
			us(&s.write, 0.5), us(&s.write, 0.9), us(&s.write, 0.99), s.write.n, us(&s.aux, 0.5), s.aux.n)
	}
	return b.String()
}

// latencies fills r's read and write figures from the reports the reads
// and the writes were measured in. Only the medians are bounded metrics;
// p90 and p99 are printed: on the reference host, hypervisor steal comes
// in millisecond gaps that set the tail in some runs and not in others.
func (r *report) latencies(reads, writes *report) {
	r.e2e["read_p50_us"] = reads.quantileUs(readsOf, 0.5)
	r.e2e["write_p50_us"] = writes.quantileUs(writesOf, 0.5)
	r.extraf("read_p90_us", "us", reads.quantileUs(readsOf, 0.9))
	r.extraf("read_p99_us", "us", reads.quantileUs(readsOf, 0.99))
	r.extraf("write_p90_us", "us", writes.quantileUs(writesOf, 0.9))
	r.extraf("write_p99_us", "us", writes.quantileUs(writesOf, 0.99))
}

// timeSetups runs build n times, keeps the last store it builds and
// returns the median set-up time alongside it; each earlier build is torn
// down and its memory returned before the next starts.
func timeSetups[T any](n int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var zero T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			return v, times, nil
		}
		teardown(v)
		freeMemory()
	}
	return zero, nil, errors.New("no set-up ran")
}

// spreadNote describes a set of samples as min/median/max.
func spreadNote(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%d samples, min %.4f median %.4f max %.4f", len(s), s[0], median(s), s[len(s)-1])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMiB forces a collection and returns the heap it found live:
// the memory the workload's state holds (the arenas are Go heap too).
// Taken right after the timed phase, it is the workload's memory at its
// largest, free of when the collector last happened to run.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// phase is a timed phase: fixed work cut into segments chunks that every
// client runs in lockstep, chunk k+1 starting when the last client has
// finished chunk k. The work is fixed per --seconds, calibrated so a phase
// takes about that long on the reference host; a faster program finishes
// sooner, with the store in the same state at every chunk.
type phase struct {
	starts, ends [segments]time.Time
}

func (p *phase) dur(k int) time.Duration { return p.ends[k].Sub(p.starts[k]) }

func (p *phase) elapsed() time.Duration {
	var d time.Duration
	for k := range p.ends {
		d += p.dur(k)
	}
	return d
}

// runPhase runs work(c, k) for every client c and chunk k. between, if
// not nil, runs after each chunk with every client stopped, outside the
// chunks' timing: the quiescent measurements are spread over the whole
// phase that way, not bunched at its end.
func runPhase(clients int, work func(c, k int), between func(k int)) phase {
	var p phase
	for k := range p.ends {
		p.starts[k] = time.Now()
		together(clients, func(c int) { work(c, k) })
		p.ends[k] = time.Now()
		if between != nil {
			between(k)
		}
	}
	return p
}

// together runs work(c) for every client concurrently and waits.
func together(clients int, work func(c int)) {
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			work(c)
		}(c)
	}
	wg.Wait()
}

// perChunk is how many rounds each client runs per chunk for a phase of
// about seconds at ratePerSec rounds per second: at least one.
func perChunk(seconds, ratePerSec float64) int {
	return max(1, int(seconds*ratePerSec/segments+0.5))
}
