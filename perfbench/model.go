package main

import (
	"fmt"
	"sync/atomic"

	"mvkv/internal/kv"
)

// The reference model is built only from what the benchmark's clients
// issued and had acknowledged; it never consults the store's own output.
//
// Every key has one owning client, so a key's writes are sequential. Each
// write gets a log entry and a value that names it: the top byte is the
// writer (0 for the preload), the rest the writer's log index (or the key
// index for the preload). A returned value therefore identifies exactly
// which write it came from.
//
// Tags are counted by the one client that seals them: started is bumped
// just before the Tag call, done just after it returns. A write records
// done before it is issued (c) and started after it is acknowledged (s).
// Model tag i then must hold the write when s <= i (acknowledged before the
// call began) and must not hold it when c > i (issued after the call
// returned); in between either answer is right.
//
// The store has one known visibility fault: a write can return before
// every lower commit sequence is finished, and readers only expose entries
// below the finished prefix. A read that misses an acknowledged write is
// therefore explained, and counted as stale rather than wrong, only when
// another client had a write in flight that began before the missed write
// was acknowledged. Without such a write no lower sequence can be pending.

type verdict uint8

const (
	vOK verdict = iota
	vStale
	vBad
)

const failedMark = ^uint32(0)

const (
	keyBase   = 16
	keyStride = 16
)

func keyOf(j int) uint64 { return keyBase + uint64(j)*keyStride }

func keyIndex(k uint64, n int) (int, bool) {
	if k < keyBase || (k-keyBase)%keyStride != 0 {
		return 0, false
	}
	j := (k - keyBase) / keyStride
	if j >= uint64(n) {
		return 0, false
	}
	return int(j), true
}

const payloadMask = 1<<56 - 1

func preloadValue(j int) uint64           { return uint64(j) + 1 }
func writeValue(c int, idx uint32) uint64 { return uint64(c+1)<<56 | uint64(idx) }

type wentry struct {
	keyp atomic.Uint32 // key index + 1
	c    atomic.Uint32 // model tags done before issue
	s    atomic.Uint32 // 0 unacknowledged, failedMark failed, else tags started after ack + 1
	next atomic.Uint32 // owner's log index + 1 of the key's next write
	ack  atomic.Uint32 // ack clock after this write's acknowledgement
}

type clientLog struct {
	entries  []wentry
	n        int
	inflight atomic.Uint64 // ack clock at the start of the write in flight + 1, 0 if none
	_        [48]byte
}

type model struct {
	nkeys   int
	owner   []uint8
	clients []clientLog

	first    []atomic.Uint32 // key -> owner's log index + 1 of its first write
	last     []atomic.Uint64 // key -> value of the owner's last acknowledged write
	tail     []uint32        // key -> log index + 1 of the last issued, not failed write
	preloads []uint32        // key -> how many times the set-up wrote its preload value
	prevTail []uint32        // key -> tail before the write in flight

	started, done atomic.Uint32
	tagVer        []uint64
	ackClock      atomic.Uint32
}

// newModel builds a model of nkeys preloaded keys, owned as owner(j) says,
// with room for logCap writes per client and maxTags model tags.
func newModel(nkeys, nclients, logCap, maxTags int, owner func(j int) int) *model {
	m := &model{
		nkeys:    nkeys,
		owner:    make([]uint8, nkeys),
		clients:  make([]clientLog, nclients),
		first:    make([]atomic.Uint32, nkeys),
		last:     make([]atomic.Uint64, nkeys),
		tail:     make([]uint32, nkeys),
		prevTail: make([]uint32, nkeys),
		preloads: make([]uint32, nkeys),
		tagVer:   make([]uint64, maxTags),
	}
	for j := range m.owner {
		m.owner[j] = uint8(owner(j))
		m.last[j].Store(preloadValue(j))
		m.preloads[j] = 1
	}
	for c := range m.clients {
		m.clients[c].entries = make([]wentry, logCap)
	}
	return m
}

// begin logs client c's write to key j and returns the value to write.
func (m *model) begin(c, j int) (uint64, uint32) {
	cl := &m.clients[c]
	idx := uint32(cl.n)
	cl.n++
	e := &cl.entries[idx]
	e.keyp.Store(uint32(j + 1))
	e.c.Store(m.done.Load())
	prev := m.tail[j]
	m.prevTail[j] = prev
	if prev == 0 {
		m.first[j].Store(idx + 1)
	} else {
		cl.entries[prev-1].next.Store(idx + 1)
	}
	m.tail[j] = idx + 1
	if cl.inflight.Load() == 0 {
		cl.inflight.Store(uint64(m.ackClock.Load()) + 1)
	}
	return writeValue(c, idx), idx
}

// ack records the acknowledgement of client c's write idx to key j.
func (m *model) ack(c, j int, idx uint32) {
	cl := &m.clients[c]
	e := &cl.entries[idx]
	e.ack.Store(m.ackClock.Add(1))
	e.s.Store(m.started.Load() + 1)
	m.last[j].Store(writeValue(c, idx))
}

// fail records that client c's write idx to key j returned an error: it
// must never be read, and it leaves the key's chain.
func (m *model) fail(c, j int, idx uint32) {
	cl := &m.clients[c]
	cl.entries[idx].s.Store(failedMark)
	prev := m.prevTail[j]
	if prev == 0 {
		m.first[j].Store(0)
	} else {
		cl.entries[prev-1].next.Store(0)
	}
	m.tail[j] = prev
}

// settle marks client c as having no write in flight; writers call it
// once every write of an operation is acknowledged or failed.
func (m *model) settle(c int) { m.clients[c].inflight.Store(0) }

// tagBegin and tagEnd bracket the one tagging client's Tag call.
func (m *model) tagBegin() uint32 {
	i := m.started.Load()
	m.started.Store(i + 1)
	return i
}

func (m *model) tagEnd(i uint32, version uint64) {
	m.tagVer[i] = version
	m.done.Store(i + 1)
}

// oldestInflight is the earliest write start among clients other than c
// (ack clock + 1), or 0 when none is in flight. Readers take it before a
// read so a stale answer can be tested against the visibility fault.
func (m *model) oldestInflight(c int) uint64 {
	var min uint64
	for o := range m.clients {
		if o == c {
			continue
		}
		if v := m.clients[o].inflight.Load(); v != 0 && (min == 0 || v < min) {
			min = v
		}
	}
	return min
}

// entry resolves a client write value to its log entry for key j, or nil
// when the value names no logged, unfailed write to j.
func (m *model) entry(j int, v uint64) *wentry {
	w := int(v >> 56)
	p := v & payloadMask
	if w < 1 || w > len(m.clients) || p >= uint64(len(m.clients[w-1].entries)) {
		return nil
	}
	e := &m.clients[w-1].entries[p]
	if e.keyp.Load() != uint32(j+1) || e.s.Load() == failedMark {
		return nil
	}
	return e
}

// successor returns the entry of the owner's write to j after value v (the
// earliest write a reader returning v has missed), or nil.
func (m *model) successor(j int, v uint64, e *wentry) *wentry {
	var nxt uint32
	if e == nil {
		nxt = m.first[j].Load()
	} else {
		nxt = e.next.Load()
	}
	if nxt == 0 {
		return nil
	}
	return &m.clients[m.owner[j]].entries[nxt-1]
}

// lagged reports whether missing write e can be explained by the
// visibility fault, given the oldest in-flight start taken before the read.
func lagged(e *wentry, inflight uint64) bool {
	return inflight != 0 && inflight-1 < uint64(e.ack.Load())
}

// valid reports whether v is the preload or a logged, unfailed write of j.
func (m *model) valid(j int, v uint64) bool {
	if v>>56 == 0 {
		return v == preloadValue(j)
	}
	return m.entry(j, v) != nil
}

// checkAt judges value v read for key j at model tag i. inflight < 0
// means the read was quiescent, so no staleness is explained.
func (m *model) checkAt(j int, i uint32, v uint64, inflight uint64) verdict {
	var e *wentry
	if v>>56 == 0 {
		if v != preloadValue(j) {
			return vBad
		}
	} else {
		if e = m.entry(j, v); e == nil || e.c.Load() > i {
			return vBad
		}
	}
	if n := m.successor(j, v, e); n != nil {
		if s := n.s.Load(); s != 0 && s != failedMark && s-1 <= i {
			if lagged(n, inflight) {
				return vStale
			}
			return vBad
		}
	}
	return vOK
}

// checkCurrent judges a current-version read of key j that returned v,
// where lo is the key's last acknowledged value loaded before the read:
// the answer must be a write of the key no older than lo.
func (m *model) checkCurrent(j int, v, lo uint64, inflight uint64) verdict {
	var e *wentry
	if v>>56 != 0 {
		if e = m.entry(j, v); e == nil {
			return vBad
		}
	} else if v != preloadValue(j) {
		return vBad
	}
	if !older(v, lo) {
		return vOK
	}
	if n := m.successor(j, v, e); n != nil && lagged(n, inflight) {
		return vStale
	}
	return vBad
}

// older reports whether write value a was issued before b; both name
// writes of one key, whose only writer logs them in order.
func older(a, b uint64) bool {
	if a>>56 == 0 || b>>56 == 0 {
		return a>>56 == 0 && b>>56 != 0
	}
	return a&payloadMask < b&payloadMask
}

// checkRange judges a scan of key indexes [lo, hi) at model tag i: it must
// be sorted, inside its bounds, hold every key, and agree with the model.
func (m *model) checkRange(lo, hi int, i uint32, pairs []kv.KV, inflight uint64) (verdict, error) {
	if len(pairs) != hi-lo {
		return vBad, fmt.Errorf("range [%d,%d) at tag %d: %d pairs, want %d", lo, hi, i, len(pairs), hi-lo)
	}
	worst := vOK
	for n, p := range pairs {
		j := lo + n
		if p.Key != keyOf(j) {
			return vBad, fmt.Errorf("range [%d,%d) at tag %d: pair %d has key %d, want %d", lo, hi, i, n, p.Key, keyOf(j))
		}
		switch m.checkAt(j, i, p.Value, inflight) {
		case vBad:
			return vBad, fmt.Errorf("range [%d,%d) at tag %d: key %d has value %#x outside the model", lo, hi, i, p.Key, p.Value)
		case vStale:
			worst = vStale
		}
	}
	return worst, nil
}

// checkSnapshot judges a quiescent full snapshot at model tag i.
func (m *model) checkSnapshot(i uint32, pairs []kv.KV) error {
	_, err := m.checkRange(0, m.nkeys, i, pairs, 0)
	return err
}

// checkFinal judges the quiescent current state: every key holds exactly
// its owner's last acknowledged value.
func (m *model) checkFinal(pairs []kv.KV) error {
	if len(pairs) != m.nkeys {
		return fmt.Errorf("current state has %d pairs, want %d", len(pairs), m.nkeys)
	}
	for j, p := range pairs {
		if want := m.last[j].Load(); p.Key != keyOf(j) || p.Value != want {
			return fmt.Errorf("current state: pair %d is (%d, %#x), want (%d, %#x)", j, p.Key, p.Value, keyOf(j), want)
		}
	}
	return nil
}

// chain appends key j's expected history values to buf: the preload as
// often as the set-up wrote it, then every acknowledged write in order.
// Only meaningful once the clients have stopped.
func (m *model) chain(j int, buf []uint64) []uint64 {
	for i := uint32(0); i < m.preloads[j]; i++ {
		buf = append(buf, preloadValue(j))
	}
	own := int(m.owner[j])
	for nxt := m.first[j].Load(); nxt != 0; {
		e := &m.clients[own].entries[nxt-1]
		if s := e.s.Load(); s != 0 && s != failedMark {
			buf = append(buf, writeValue(own, nxt-1))
		}
		nxt = e.next.Load()
	}
	return buf
}
