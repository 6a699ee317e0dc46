package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mvkv/internal/core"
	"mvkv/internal/kv"
)

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads the
// program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, program has %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, program prints %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %s/%s, program prints %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eDefs)
	check("per_layer", spec.PerLayer, layerDefs)
}

func TestModelVerdicts(t *testing.T) {
	m := newModel(2, 2, 16, 8, func(j int) int { return j })
	t0 := m.tagBegin()
	m.tagEnd(t0, 1)
	v1, i1 := m.begin(0, 0)
	m.ack(0, 0, i1)
	m.settle(0)
	t1 := m.tagBegin() // v1 acknowledged before this tag began: it must be in it
	m.tagEnd(t1, 2)
	v2, i2 := m.begin(0, 0) // issued after tag 1 returned: it must not be
	m.ack(0, 0, i2)
	m.settle(0)
	cases := []struct {
		name string
		got  verdict
		want verdict
	}{
		{"preload at tag 0", m.checkAt(0, t0, preloadValue(0), 0), vOK},
		{"preload at tag 1 misses v1", m.checkAt(0, t1, preloadValue(0), 0), vBad},
		{"v1 at tag 1", m.checkAt(0, t1, v1, 0), vOK},
		{"v2 at tag 1", m.checkAt(0, t1, v2, 0), vBad},
		{"v1 at tag 0 (issued after it)", m.checkAt(0, t0, v1, 0), vBad},
		{"other key's value", m.checkAt(1, t1, v1, 0), vBad},
		{"current v2", m.checkCurrent(0, v2, v2, 0), vOK},
		{"current v1 after v2 acknowledged", m.checkCurrent(0, v1, v2, 0), vBad},
		{"current v1, a write in flight since before v2's ack", m.checkCurrent(0, v1, v2, 1), vStale},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, c.got, c.want)
		}
	}
	_, i3 := m.begin(0, 0)
	m.fail(0, 0, i3)
	m.settle(0)
	if got := m.chain(0, nil); len(got) != 3 || got[1] != v1 || got[2] != v2 {
		t.Fatalf("chain %#x, want preload, v1, v2", got)
	}
}

type fault int

const (
	dropWrite    fault = iota // acknowledge one write without applying it
	olderFind                 // answer one Find with the key's oldest value
	swapSnapshot              // swap two pairs of one snapshot
)

// faultyStore is a PSkipList that does one wrong thing once, keeping
// every capability of the store it embeds.
type faultyStore struct {
	*core.Store
	f     fault
	n     atomic.Int64
	fired atomic.Bool
}

// trigger is the operation count at which the fault fires.
const trigger = 100

// due counts n more units of the faulted operation and reports whether
// the fault fires now.
func (s *faultyStore) due(n int) bool {
	return s.n.Add(int64(n)) >= trigger && s.fired.CompareAndSwap(false, true)
}

func (s *faultyStore) Insert(key, value uint64) error {
	if s.f == dropWrite && s.due(1) {
		return nil
	}
	return s.Store.Insert(key, value)
}

func (s *faultyStore) InsertBatch(pairs []kv.KV) error {
	if s.f == dropWrite && len(pairs) > 1 && s.due(len(pairs)) {
		return s.Store.InsertBatch(pairs[1:])
	}
	return s.Store.InsertBatch(pairs)
}

func (s *faultyStore) CommitWrites(readTS uint64, writes []kv.KV) (uint64, error) {
	if s.f == dropWrite && len(writes) > 1 && s.due(len(writes)) {
		writes = writes[1:]
	}
	return s.Store.CommitWrites(readTS, writes)
}

func (s *faultyStore) Find(key, version uint64) (uint64, bool) {
	v, ok := s.Store.Find(key, version)
	if s.f != olderFind || !ok || s.fired.Load() {
		return v, ok
	}
	// Only keys written at least twice since the preload: the first write
	// the wrong answer misses was then acknowledged before the second was
	// issued, so no concurrent write or in-flight append can excuse it.
	if h := s.Store.ExtractHistory(key); len(h) > 2 && h[0].Value != v && s.due(1) {
		return h[0].Value, true
	}
	return v, ok
}

func (s *faultyStore) ExtractSnapshot(version uint64) []kv.KV {
	out := s.Store.ExtractSnapshot(version)
	if s.f == swapSnapshot && len(out) > 1 && s.fired.CompareAndSwap(false, true) {
		out[0], out[1] = out[1], out[0]
	}
	return out
}

func (s *faultyStore) StreamSnapshot(version uint64, emit func([]kv.KV) error) error {
	return s.Store.StreamSnapshot(version, func(pairs []kv.KV) error {
		if s.f == swapSnapshot && len(pairs) > 1 && s.fired.CompareAndSwap(false, true) {
			c := append([]kv.KV(nil), pairs...)
			c[0], c[1] = c[1], c[0]
			return emit(c)
		}
		return emit(pairs)
	})
}

func smallRun(t *testing.T, name string, wrap func(kv.Store) kv.Store) *report {
	t.Helper()
	rep, err := workloads[name](runConfig{workload: name, seed: 7, seconds: 1, small: true, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCheckersCatchFaults runs every workload at a small fixed size over a
// store that does one wrong thing, and requires the workload's checks to
// report it; over a correct store they must report nothing.
func TestCheckersCatchFaults(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name+"/clean", func(t *testing.T) {
			rep := smallRun(t, name, func(s kv.Store) kv.Store { return s })
			if _, _, v := rep.totals(); v != 0 {
				t.Fatalf("%d violations on a correct store: %v", v, rep.msgs)
			}
		})
		for _, f := range []fault{dropWrite, olderFind, swapSnapshot} {
			f := f
			t.Run(name+"/"+[]string{"drop-write", "older-find", "swap-snapshot"}[f], func(t *testing.T) {
				// One faulty decorator per store, however many views of
				// it the workload hands out.
				var mu sync.Mutex
				fs := map[*core.Store]*faultyStore{}
				rep := smallRun(t, name, func(s kv.Store) kv.Store {
					mu.Lock()
					defer mu.Unlock()
					cs := s.(*core.Store)
					if fs[cs] == nil {
						fs[cs] = &faultyStore{Store: cs, f: f}
					}
					return fs[cs]
				})
				fired := false
				for _, x := range fs {
					fired = fired || x.fired.Load()
				}
				if !fired {
					t.Fatal("the fault never fired; the test proves nothing")
				}
				if _, _, v := rep.totals(); v == 0 {
					t.Fatal("the checks missed the fault")
				}
				t.Logf("caught: %v", rep.msgs)
			})
		}
	}
}
