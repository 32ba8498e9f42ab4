package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runsOf fabricates five untraced records of one workload whose metrics
// are all 100×scale, spread a little around it.
func runsOf(workload string, scale float64, failed int64) []record {
	var recs []record
	for i, jitter := range []float64{0.99, 1.0, 1.01, 1.0, 0.995} {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.Name] = metricValue{Value: 100 * scale * jitter, Unit: d.Unit, Samples: 1}
		}
		recs = append(recs, record{Workload: workload, Seed: int64(i), Seconds: 10, GoMaxProcs: 2, NProc: 2, Attempted: 10, Failed: failed, Metrics: m})
	}
	return recs
}

// fullSet is runsOf for every workload of the manifest.
func fullSet(scale float64, failed int64) []record {
	var recs []record
	for _, p := range plans {
		recs = append(recs, runsOf(p.name, scale, failed)...)
	}
	return recs
}

func compareCode(a, b []record) (int, string) {
	var out bytes.Buffer
	code := compareRecords(a, b, &out, &out)
	return code, out.String()
}

func TestCompareHoldsBounds(t *testing.T) {
	base := fullSet(1, 0)
	if code, out := compareCode(base, fullSet(1.02, 0)); code != 0 {
		t.Errorf("2%% apart: exit %d\n%s", code, out)
	}
	// 30% higher is beyond every bound: worse for a lower-is-better
	// metric, better for qps and crawl_names_per_s. Either is a
	// difference, and 30% lower is the mirror image.
	for _, scale := range []float64{1.30, 0.70} {
		code, out := compareCode(base, fullSet(scale, 0))
		if code != 1 {
			t.Errorf("scale %v: exit %d, want 1", scale, code)
		}
		for _, line := range strings.Split(out, "\n") {
			higher := strings.Contains(line, " qps ") || strings.Contains(line, "crawl_names_per_s")
			rose := scale > 1
			if strings.Contains(line, "WORSE") && higher == rose || strings.Contains(line, "BETTER") && higher != rose {
				t.Errorf("scale %v: wrong direction reported: %s", scale, line)
			}
		}
		if !strings.Contains(out, "WORSE BEYOND BOUND") || !strings.Contains(out, "BETTER BEYOND BOUND") {
			t.Errorf("scale %v: want both directions reported\n%s", scale, out)
		}
	}
	if code, out := compareCode(base, fullSet(1, 3)); code != 1 || !strings.Contains(out, "FAILED OPS") {
		t.Errorf("failed operations: exit %d, want 1\n%s", code, out)
	}
}

// TestCompareNeedsSomethingToCompare: a set that is empty, lacks a
// workload or lacks a metric must not pass as "nothing is worse", and
// sets measured under different conditions are not compared at all.
func TestCompareNeedsSomethingToCompare(t *testing.T) {
	base := fullSet(1, 0)
	if code, out := compareCode(base, nil); code != 1 || !strings.Contains(out, "MISSING") {
		t.Errorf("empty second set: exit %d, want 1\n%s", code, out)
	}
	if code, _ := compareCode(nil, nil); code != 1 {
		t.Errorf("two empty sets: exit %d, want 1", code)
	}
	if code, out := compareCode(base, runsOf("serve_refused", 1, 0)); code != 1 || !strings.Contains(out, "MISSING") {
		t.Errorf("second set lacks three workloads: exit %d, want 1\n%s", code, out)
	}
	partial := fullSet(1, 0)
	for _, r := range partial {
		delete(r.Metrics, "qps")
	}
	if code, out := compareCode(base, partial); code != 1 || !strings.Contains(out, "MISSING") {
		t.Errorf("second set lacks a metric: exit %d, want 1\n%s", code, out)
	}

	// A file of traced runs only holds no end-to-end metric.
	path := filepath.Join(t.TempDir(), "traced.json")
	for _, r := range base {
		r.Trace = true
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(path, path, &out, &errOut); code != 1 {
		t.Errorf("traced runs only: exit %d, want 1\n%s", code, out.String())
	}

	other := fullSet(1, 0)
	other[7].Seconds = 5
	if code, out := compareCode(base, other); code != 2 || !strings.Contains(out, "different conditions") {
		t.Errorf("a run of another length: exit %d, want 2\n%s", code, out)
	}
	other = fullSet(1, 0)
	other[0].GoMaxProcs = 1
	if code, _ := compareCode(base, other); code != 2 {
		t.Errorf("a run at another GOMAXPROCS: exit %d, want 2", code)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	recs := fullSet(1, 0)
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || got[4].Metrics["qps"] != recs[4].Metrics["qps"] || got[2].Seed != 2 || got[19].Workload != "survey_pipeline" {
		t.Errorf("read back %d records, want the %d appended", len(got), len(recs))
	}
	var out, errOut bytes.Buffer
	if code := compareFiles(path, path, &out, &errOut); code != 0 {
		t.Errorf("a file against itself: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// TestRefusesOversubscribedRun: more Ps than CPUs would measure the
// scheduler, so the command refuses before it measures anything.
func TestRefusesOversubscribedRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-workload", "serve_refused"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "GOMAXPROCS") {
		t.Errorf("exit %d, stderr %q: want a refusal naming GOMAXPROCS", code, errOut.String())
	}
	if code := realMain([]string{"-workload", "no_such"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
