// Command perfbench is mvkv's benchmark: four seeded workloads that drive
// PSkipList through each layer's public entry points (the embedded
// core.Store, the kv transaction layer, a kvnet server and pipelined client
// over loopback, and a 4-rank dist.ClusterStore), check every answer
// against a reference model of their own, and print end-to-end metrics
// (untraced) or per-layer metrics (traced).
//
//	go run . --workload point-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and what each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every workload reports untraced.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"snapshot_ms", "ms"},
	{"write_amp", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// layerDefs are the per-layer metrics of a traced run. A layer a workload
// does not cross reads 0 there.
var layerDefs = []metricDef{
	{"core.find_us", "us"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_bypass_per_find", "ratio"},
	{"core.range_us", "us"},
	{"core.insert_us", "us"},
	{"core.stale_own_reads", "count"},
	{"core.stale_other_reads", "count"},
	{"core.gcommit_pairs_per_run", "ratio"},
	{"core.gcommit_flush_us", "us"},
	{"core.txn_commit_us", "us"},
	{"kv.txn_overhead_us", "us"},
	{"core.txn_conflicts", "count"},
	{"core.history_full", "count"},
	{"core.vgc_pass_ms", "ms"},
	{"core.vgc_reclaimed_per_pass", "ratio"},
	{"core.extract_ms", "ms"},
	{"core.recovery_ms", "ms"},
	{"core.recovery_entries", "count"},
	{"pmem.persists_per_pair", "ratio"},
	{"pmem.persist_bytes_per_pair", "B"},
	{"pmem.freelist_hit_ratio", "ratio"},
	{"pmem.heap_used_mb", "MiB"},
	{"kvnet.call_us", "us"},
	{"kvnet.server_store_us", "us"},
	{"kvnet.wire_us", "us"},
	{"kvnet.frames_per_flush", "ratio"},
	{"kvnet.generator_late_p99_us", "us"},
	{"dist.find_us", "us"},
	{"dist.owner_find_us", "us"},
	{"dist.route_us", "us"},
	{"dist.scatter_us", "us"},
	{"dist.owner_batch_us", "us"},
	{"cluster.msgs_per_op", "ratio"},
	{"cluster.bytes_per_op", "B"},
	{"cluster.send_us", "us"},
	{"dist.rank_extract_ms", "ms"},
	{"merge.gather_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type workloadFunc func(cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"point-zipf":       runPointZipf,
	"ingest-txn":       runIngestTxn,
	"remote-pipelined": runRemote,
	"cluster-gather":   runCluster,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: point-zipf, ingest-txn, remote-pipelined or cluster-gather")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	spans := flag.String("spans", "", "file for the traced run's spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %v, --seconds > 0, --trace 0|1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds}
	var res resultOut
	if *trace == 0 {
		rep, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		res = rep.result(e2eDefs, rep.e2e)
	} else {
		// Two halves in one process: the untraced half is the baseline the
		// tracing overhead is measured against.
		cfg.seconds = *seconds / 2
		base, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			os.Exit(1)
		}
		runtime.GC()
		cfg.tr = newTracer()
		rep, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *workload, err)
			os.Exit(1)
		}
		if b, t := base.e2e["ops_per_s"], rep.e2e["ops_per_s"]; t > 0 {
			rep.layer["trace.overhead_pct"] = (b/t - 1) * 100
		}
		rep.absorb(base)
		rep.print(os.Stdout)
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		}
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
		res = rep.result(layerDefs, rep.layer)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
