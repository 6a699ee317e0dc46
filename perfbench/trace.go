package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvkv/internal/cluster"
	"mvkv/internal/core"
	"mvkv/internal/dist"
	"mvkv/internal/kv"
	"mvkv/internal/obs"
)

// Tracing records spans around the calls the benchmark makes into each
// layer's public entry points: a decorator for kv.Store (the embedded
// store, the store a kvnet.Server serves, and each cluster rank's local
// store), one for cluster.Transport, and spans the workloads open around
// their own calls (a kvnet client call, a ClusterStore operation, a
// kv.Txn commit). Spans live in memory and are written out when the run
// ends. Nothing here runs in an untraced run: the decorators are simply
// not installed.

type spanName uint8

const (
	spBench spanName = iota // the workload's own operation (root)
	spCoreFind
	spCoreFindOwner // a cluster rank's Find of a key it owns
	spCoreFindBatch
	spCoreInsert
	spCoreInsertBatch
	spCoreRange
	spCoreSnapshot
	spCoreStream
	spCoreCommit
	spCoreApply
	spCoreGC
	spCoreTag
	spCoreOther
	spKVCommit
	spNetCall
	spDistFind
	spDistScatter
	spDistTag
	spDistGather
	spClusterSend
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"bench.op", "core.Find", "core.Find.owner", "core.FindBatch", "core.Insert",
	"core.InsertBatch", "core.ExtractRange", "core.ExtractSnapshot", "core.Stream",
	"core.CommitWrites", "core.ApplyWrites", "core.GC", "core.Tag", "core.other",
	"kv.Txn.Commit", "kvnet.Client.call", "dist.ClusterStore.Find",
	"dist.ClusterStore.InsertBatch", "dist.ClusterStore.Tag", "dist.ClusterStore.ExtractSnapshot",
	"cluster.Transport.Send",
}

type span struct {
	Name   string `json:"name"`
	Lane   int    `json:"lane"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

type spanRec struct {
	name            spanName
	lane            int32
	id, parent, req uint64
	start, end      int64
}

type aggregate struct {
	n     atomic.Uint64
	total atomic.Int64
	self  atomic.Int64
}

func (a *aggregate) meanUs() float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.total.Load()) / float64(n) / 1e3
}

// ringCap bounds the spans a lane keeps for writing out; aggregates cover
// every span regardless.
const ringCap = 1 << 14

type tracer struct {
	epoch  time.Time
	agg    [nSpanNames]aggregate
	nextID atomic.Uint64

	// With a single driving client (the cluster workload), spans recorded
	// on other goroutines attach to the driving client's open operation.
	curReq    atomic.Uint64
	curParent atomic.Uint64

	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type frame struct {
	name     spanName
	id, req  uint64
	start    int64
	children int64
}

// lane is one recording context. A stack lane belongs to one goroutine and
// nests spans; a shared lane (a server's or a rank's store, entered from
// several goroutines) records leaf spans under a mutex.
type lane struct {
	t      *tracer
	index  int
	shared bool
	mu     sync.Mutex
	stack  [8]frame
	depth  int
	ring   []spanRec
	pos    int
	total  int
}

func (t *tracer) newLane(shared bool) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, index: len(t.lanes), shared: shared, ring: make([]spanRec, ringCap)}
	t.lanes = append(t.lanes, l)
	return l
}

type mark struct {
	name  spanName
	start int64
}

func (l *lane) begin(name spanName) mark {
	if l == nil {
		return mark{}
	}
	start := l.t.now()
	if !l.shared {
		var req uint64
		if l.depth > 0 {
			req = l.stack[l.depth-1].req
		}
		id := l.t.nextID.Add(1)
		if req == 0 {
			req = id
		}
		l.stack[l.depth] = frame{name: name, id: id, req: req, start: start}
		l.depth++
	}
	return mark{name: name, start: start}
}

func (l *lane) end(m mark) int64 {
	if l == nil {
		return 0
	}
	end := l.t.now()
	t := l.t
	if !l.shared {
		l.depth--
		f := l.stack[l.depth]
		dur := end - f.start
		self := dur - f.children
		var parent uint64
		if l.depth > 0 {
			l.stack[l.depth-1].children += dur
			parent = l.stack[l.depth-1].id
		}
		t.account(f.name, dur, self)
		l.record(spanRec{name: f.name, lane: int32(l.index), id: f.id, parent: parent, req: f.req, start: f.start, end: end})
		return dur
	}
	dur := end - m.start
	t.account(m.name, dur, dur)
	l.mu.Lock()
	l.record(spanRec{name: m.name, lane: int32(l.index), id: t.nextID.Add(1), parent: t.curParent.Load(), req: t.curReq.Load(), start: m.start, end: end})
	l.mu.Unlock()
	return dur
}

func (t *tracer) account(name spanName, dur, self int64) {
	a := &t.agg[name]
	a.n.Add(1)
	a.total.Add(dur)
	a.self.Add(self)
}

func (l *lane) record(r spanRec) {
	l.ring[l.pos] = r
	l.pos = (l.pos + 1) % len(l.ring)
	l.total++
}

// publish makes the driving client's innermost open span the parent of spans
// recorded on shared lanes until the next publish (single-client use).
func (l *lane) publish() {
	if l == nil || l.depth == 0 {
		return
	}
	f := l.stack[l.depth-1]
	l.t.curReq.Store(f.req)
	l.t.curParent.Store(f.id)
}

// write dumps the retained spans as JSON lines, with self time recomputed
// as duration minus the union of the intervals their children cover
// (children on other goroutines included).
func (t *tracer) write(path string) error {
	var all []spanRec
	for _, l := range t.lanes {
		n := l.total
		if n > len(l.ring) {
			n = len(l.ring)
		}
		for i := 0; i < n; i++ {
			all = append(all, l.ring[(l.pos-n+i+len(l.ring))%len(l.ring)])
		}
	}
	byParent := make(map[uint64][]int)
	for i, r := range all {
		if r.parent != 0 {
			byParent[r.parent] = append(byParent[r.parent], i)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range all {
		self := r.end - r.start - covered(r, all, byParent[r.id])
		if err := enc.Encode(span{Name: spanNames[r.name], Lane: int(r.lane), ID: r.id, Parent: r.parent, Req: r.req, Start: r.start, End: r.end, Self: self}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p spanRec, all []spanRec, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(all[k].start, p.start), min(all[k].end, p.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, cs, ce int64
	for i, v := range iv {
		if i == 0 || v[0] > ce {
			sum += ce - cs
			cs, ce = v[0], v[1]
		} else if v[1] > ce {
			ce = v[1]
		}
	}
	return sum + ce - cs
}

// tracedStore decorates a PSkipList with spans around every public entry
// point, keeping each optional capability the layers above look for.
type tracedStore struct {
	inner *core.Store
	ln    *lane
	rank  int // cluster rank, -1 outside a cluster
	size  int
	// lastExtract is the duration of this store's latest ExtractSnapshot
	// (the cluster workload takes the slowest rank per gather).
	lastExtract atomic.Int64
}

func traceStore(s *core.Store, ln *lane) *tracedStore {
	return &tracedStore{inner: s, ln: ln, rank: -1}
}

func (s *tracedStore) Insert(key, value uint64) error {
	m := s.ln.begin(spCoreInsert)
	err := s.inner.Insert(key, value)
	s.ln.end(m)
	return err
}

func (s *tracedStore) Remove(key uint64) error {
	m := s.ln.begin(spCoreOther)
	err := s.inner.Remove(key)
	s.ln.end(m)
	return err
}

func (s *tracedStore) Find(key, version uint64) (uint64, bool) {
	name := spCoreFind
	if s.rank >= 0 && dist.Owner(key, s.size) == s.rank {
		name = spCoreFindOwner
	}
	m := s.ln.begin(name)
	v, ok := s.inner.Find(key, version)
	s.ln.end(m)
	return v, ok
}

func (s *tracedStore) Tag() uint64 {
	m := s.ln.begin(spCoreTag)
	v := s.inner.Tag()
	s.ln.end(m)
	return v
}

func (s *tracedStore) CurrentVersion() uint64 { return s.inner.CurrentVersion() }

func (s *tracedStore) ExtractSnapshot(version uint64) []kv.KV {
	m := s.ln.begin(spCoreSnapshot)
	out := s.inner.ExtractSnapshot(version)
	s.lastExtract.Store(s.ln.end(m))
	return out
}

func (s *tracedStore) ExtractHistory(key uint64) []kv.Event {
	m := s.ln.begin(spCoreOther)
	out := s.inner.ExtractHistory(key)
	s.ln.end(m)
	return out
}

func (s *tracedStore) ExtractRange(lo, hi, version uint64) []kv.KV {
	m := s.ln.begin(spCoreRange)
	out := s.inner.ExtractRange(lo, hi, version)
	s.ln.end(m)
	return out
}

func (s *tracedStore) Len() int     { return s.inner.Len() }
func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) InsertBatch(pairs []kv.KV) error {
	m := s.ln.begin(spCoreInsertBatch)
	err := s.inner.InsertBatch(pairs)
	s.ln.end(m)
	return err
}

func (s *tracedStore) FindBatch(keys, versions []uint64) ([]uint64, []bool) {
	m := s.ln.begin(spCoreFindBatch)
	v, ok := s.inner.FindBatch(keys, versions)
	s.ln.end(m)
	return v, ok
}

func (s *tracedStore) StreamSnapshot(version uint64, emit func([]kv.KV) error) error {
	m := s.ln.begin(spCoreStream)
	err := s.inner.StreamSnapshot(version, emit)
	s.ln.end(m)
	return err
}

func (s *tracedStore) StreamRange(lo, hi, version uint64, emit func([]kv.KV) error) error {
	m := s.ln.begin(spCoreStream)
	err := s.inner.StreamRange(lo, hi, version, emit)
	s.ln.end(m)
	return err
}

func (s *tracedStore) AcquireTag() uint64 {
	m := s.ln.begin(spCoreTag)
	v := s.inner.AcquireTag()
	s.ln.end(m)
	return v
}

func (s *tracedStore) ReleaseTag(tag uint64) error {
	m := s.ln.begin(spCoreOther)
	err := s.inner.ReleaseTag(tag)
	s.ln.end(m)
	return err
}

func (s *tracedStore) GC() (kv.GCResult, error) {
	m := s.ln.begin(spCoreGC)
	r, err := s.inner.GC()
	s.ln.end(m)
	return r, err
}

func (s *tracedStore) CommitWrites(readTS uint64, writes []kv.KV) (uint64, error) {
	m := s.ln.begin(spCoreCommit)
	v, err := s.inner.CommitWrites(readTS, writes)
	s.ln.end(m)
	return v, err
}

func (s *tracedStore) ApplyWrites(writes []kv.KV) error {
	m := s.ln.begin(spCoreApply)
	err := s.inner.ApplyWrites(writes)
	s.ln.end(m)
	return err
}

func (s *tracedStore) TruncateFrom(cutoff uint64) error { return s.inner.TruncateFrom(cutoff) }

func (s *tracedStore) ObsSnapshot() obs.Snapshot { return s.inner.ObsSnapshot() }

var (
	_ kv.Store            = (*tracedStore)(nil)
	_ kv.BulkStore        = (*tracedStore)(nil)
	_ kv.SnapshotStreamer = (*tracedStore)(nil)
	_ kv.Pinner           = (*tracedStore)(nil)
	_ kv.Collector        = (*tracedStore)(nil)
	_ kv.TxnCommitter     = (*tracedStore)(nil)
	_ kv.WriteApplier     = (*tracedStore)(nil)
	_ kv.Truncator        = (*tracedStore)(nil)
)

// countingTransport decorates a rank's cluster.Transport: it counts the
// messages and bytes a rank sends and times each Send.
type countingTransport struct {
	inner cluster.Transport
	ln    *lane
	msgs  *atomic.Uint64
	bytes *atomic.Uint64
}

func (c *countingTransport) Send(to int, tag uint64, payload []byte) error {
	m := c.ln.begin(spClusterSend)
	err := c.inner.Send(to, tag, payload)
	c.ln.end(m)
	c.msgs.Add(1)
	c.bytes.Add(uint64(len(payload)))
	return err
}

func (c *countingTransport) Recv(from int, tag uint64) ([]byte, error) {
	return c.inner.Recv(from, tag)
}

func (c *countingTransport) RecvTimeout(from int, tag uint64, d time.Duration) ([]byte, error) {
	return cluster.RecvTimeout(c.inner, from, tag, d)
}

func (c *countingTransport) Drain(from int, tag uint64) int {
	if tt, ok := c.inner.(cluster.TimeoutTransport); ok {
		return tt.Drain(from, tag)
	}
	return 0
}

func (c *countingTransport) Close() error { return c.inner.Close() }

var _ cluster.TimeoutTransport = (*countingTransport)(nil)

func (t *tracer) meanUs(n spanName) float64 { return t.agg[n].meanUs() }

func (t *tracer) selfMeanUs(n spanName) float64 {
	a := &t.agg[n]
	if c := a.n.Load(); c > 0 {
		return float64(a.self.Load()) / float64(c) / 1e3
	}
	return 0
}

func (t *tracer) count(n spanName) uint64 { return t.agg[n].n.Load() }
