// Command bench is the repository's benchmark: four workloads over real
// loopback sockets and the survey pipeline, measured end to end, and
// layer by layer from a traced run. BENCHMARK.json at the root of the
// repository is its manifest and README.md its method.
//
//	go run ./bench -workload serve_refused -seed 1 -seconds 10 -trace 0 [-out runs.json]
//	go run ./bench -compare a.json b.json
//
// A run prints every metric by name with its unit and sample count, then
// one JSON object as the last line of standard output (the driver's
// contract); -out also appends the run, stamped with its environment, to
// a file -compare can read.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dnstrust/internal/atomicio"
)

// method is stamped on every record: what kind of measurement this is.
const method = "loopback, same process, closed loop, C=nproc"

// record is one run as -out stores it and -compare reads it.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Attempted  int64                  `json:"ops_attempted"`
	Failed     int64                  `json:"ops_failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Info       map[string]any         `json:"info"`
	GoVersion  string                 `json:"go_version"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	Commit     string                 `json:"git_commit"`
	Method     string                 `json:"method"`
	When       time.Time              `json:"when"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	processStart = time.Now()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fl.Int64("seed", 1, "seed of the crawl/held-out split and of the clients' name draws")
	seconds := fl.Float64("seconds", 10, "measured traffic seconds, steady plus churn")
	trace := fl.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	out := fl.String("out", "", "append this run's record to the JSON array in this file")
	spans := fl.String("spans", "", "traced run: write every span to this file, one JSON object a line")
	compare := fl.Bool("compare", false, "compare two -out files given as arguments; exit 1 if a median differs beyond its bound or there is nothing to compare")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}

	p, err := planByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// More Ps than CPUs measures the scheduler's time slicing, not the
	// product; the record states C=nproc, so hold the run to it.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	tmp, err := workDir()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	rc := defaultRun(p, *seed, *seconds, *trace == 1, tmp)
	rc.spansOut = *spans
	res, err := runWorkload(context.Background(), rc)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	rec := record{
		Workload: p.name, Seed: *seed, Seconds: *seconds, Trace: rc.trace,
		Attempted: res.ops.attempted, Failed: res.ops.failed,
		Metrics: res.metrics.values, Info: res.info,
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: vcsRevision(), Method: method, When: time.Now().UTC(),
	}
	printRecord(stdout, rec, res.ops.notes)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	line := contractLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]contractValue{}}
	for name, v := range rec.Metrics {
		line.Metrics[name] = contractValue{Value: v.Value, Unit: v.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// workDir makes the directory the run's snapshot files go to. The
// driver's rule is that a run writes only inside its checkout, so it is
// under .bench_build in the current directory (ignored by git), never
// the system's temporary directory.
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git checkout.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printRecord(w io.Writer, rec record, notes []string) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v | %s GOMAXPROCS=%d nproc=%d commit %s | %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.GoVersion, rec.GoMaxProcs, rec.NProc, rec.Commit, rec.Method)
	for _, k := range slices.Sorted(maps.Keys(rec.Info)) {
		fmt.Fprintf(w, "  %-28s %v\n", k, rec.Info[k])
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s (n=%d)\n", d.Name, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", rec.Attempted, rec.Failed)
	for _, n := range notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecord adds rec to the JSON array in path (a missing file is an
// empty array), replacing the file atomically.
func appendRecord(path string, rec record) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	recs = append(recs, rec)
	_, err = atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(recs)
	})
	return err
}
