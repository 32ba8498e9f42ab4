// Command benchdiff compares two BENCH_N.json reports (cmd/dnsbench
// output) and fails loudly when a gated hot path regressed. Gated
// benchmarks are the CPU-bound, per-name-scaled ones: IncrementalBuild
// (graph-build ns/name), ReplayCrawl (ns/name served from a recorded
// query log), FinishEpochSmallBatch (ns per name already in the survey
// to commit a 50-name epoch — a regression here means a commit started
// re-deriving closures for the whole corpus), TimelineDiff (ns/name to diff two generations after a
// small Add — the chain-id shortcut must keep this near-constant, so a
// regression here means the diff started scanning the corpus), and
// SnapshotColdStart (ns/name to restore a monitor from a binary
// snapshot, and the replay-rebuild baseline it is compared against —
// the snapshot-load gate is what keeps restarts second-scale),
// VerdictLookup (ns/name of the serving-path verdict cache hit under
// generation churn), ProxyServe (ns/name of the full proxy handler:
// verdict plus iterative upstream resolution), and FleetMerge (ns/name
// of the coordinator's id-remapping union of per-shard snapshot epochs
// into one fleet view). All other shared
// benchmarks are reported for information only. Benchmarks absent from
// either report are skipped, so adding a new gated benchmark never
// breaks CI against older baselines.
//
// Beyond the relative gate, the new report alone is held to absolute
// floors: VerdictLookup must sustain -min-verdict-qps lookups/s
// (default 100000 — the serving-path acceptance claim), even when the
// old baseline predates the benchmark.
//
// Usage:
//
//	benchdiff -old BENCH_2.json -new /tmp/bench-ci.json [-max-regress 0.25]
//	          [-min-verdict-qps 100000]
//
// Exit status: 0 when every gated benchmark is within the allowed
// regression and every floor holds, 1 otherwise, 2 on usage/IO errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Result mirrors cmd/dnsbench's per-benchmark schema.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report mirrors cmd/dnsbench's file schema.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Names      int      `json:"names"`
	Seed       int64    `json:"seed"`
	RTT        string   `json:"rtt"`
	Benchmarks []Result `json:"benchmarks"`
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Result, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// gated reports whether a benchmark participates in the regression gate.
func gated(name string) bool {
	return strings.HasPrefix(name, "IncrementalBuild/") ||
		strings.HasPrefix(name, "ReplayCrawl/") ||
		strings.HasPrefix(name, "FinishEpochSmallBatch/") ||
		strings.HasPrefix(name, "TimelineDiff/") ||
		strings.HasPrefix(name, "SnapshotColdStart/") ||
		strings.HasPrefix(name, "VerdictLookup/") ||
		strings.HasPrefix(name, "ProxyServe/") ||
		strings.HasPrefix(name, "FleetMerge/")
}

// buildScale extracts the per-op name count from a gated benchmark name
// ("IncrementalBuild/names=100000", "ReplayCrawl/names=1200").
func buildScale(name string) (float64, bool) {
	i := strings.LastIndex(name, "names=")
	if i < 0 {
		return 0, false
	}
	var n float64
	if _, err := fmt.Sscanf(name[i:], "names=%f", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

func main() {
	oldPath := flag.String("old", "", "previous BENCH_N.json (the committed baseline)")
	newPath := flag.String("new", "", "fresh BENCH json to check")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum allowed fractional regression in build ns/name")
	minVerdictQPS := flag.Float64("min-verdict-qps", 100_000, "absolute floor on VerdictLookup lookups/s in the new report (0 disables)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(2)
	}
	oldB, err := load(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newB, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(newB))
	for name := range newB {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	gatedSeen := 0
	fmt.Printf("%-40s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		b := newB[name]
		o, ok := oldB[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		delta := (b.NsPerOp - o.NsPerOp) / o.NsPerOp
		mark := ""
		if gated(b.Name) {
			gatedSeen++
			scale, ok := buildScale(b.Name)
			if !ok {
				fmt.Fprintf(os.Stderr, "benchdiff: cannot parse scale from %q\n", b.Name)
				os.Exit(2)
			}
			oldPerName := o.NsPerOp / scale
			newPerName := b.NsPerOp / scale
			mark = " [gate]"
			if newPerName > oldPerName*(1+*maxRegress) {
				mark = " [FAIL]"
				failed++
				fmt.Fprintf(os.Stderr,
					"benchdiff: %s regressed: %.1f -> %.1f build ns/name (+%.0f%%, limit +%.0f%%)\n",
					b.Name, oldPerName, newPerName, 100*delta, 100**maxRegress)
			}
		}
		fmt.Printf("%-40s %14.0f %14.0f %+7.1f%%%s\n", b.Name, o.NsPerOp, b.NsPerOp, 100*delta, mark)
	}
	// Absolute floors run over the new report alone, so they hold even
	// when the committed baseline predates the benchmark (the skip rule
	// above only covers the relative gate).
	floors := 0
	if *minVerdictQPS > 0 {
		for _, name := range names {
			if !strings.HasPrefix(name, "VerdictLookup/") {
				continue
			}
			floors++
			qps := newB[name].Extra["lookups/s"]
			if qps < *minVerdictQPS {
				failed++
				fmt.Fprintf(os.Stderr, "benchdiff: %s below floor: %.0f lookups/s, need >= %.0f\n",
					name, qps, *minVerdictQPS)
			} else {
				fmt.Printf("floor passed: %s sustained %.0f lookups/s (floor %.0f)\n",
					name, qps, *minVerdictQPS)
			}
		}
	}
	if gatedSeen == 0 && floors == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no gated benchmarks shared between the reports — nothing gated")
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("gate passed: %d gated benchmark(s) within +%.0f%% ns/name, %d floor(s) held\n",
		gatedSeen, 100**maxRegress, floors)
}
