package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// compareFiles prints, per workload and end-to-end metric, the median
// and quartiles of the untraced runs in each file and how far the second
// set's median is from the first's. It returns 1 when a median differs
// by more than the metric's bound in either direction, when a workload
// or metric of the manifest has no run in one of the files, or when a
// run failed an operation; 2 when the two sets were not measured under
// the same conditions and so cannot be compared at all. It is the
// repeatability test of one commit against itself and the regression
// test of a change against its parent.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readRecords(pathA)
	b, errB := readRecords(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareRecords(untraced(a), untraced(b), stdout, stderr)
}

// untraced drops the traced runs: end-to-end metrics never come from one.
func untraced(recs []record) []record {
	return slices.DeleteFunc(slices.Clone(recs), func(r record) bool { return r.Trace })
}

// conditions are what two runs must share for their numbers to be
// comparable. The seed is not among them: a set is runs over several
// seeds, and the two sets of a repeatability check use different ones.
type conditions struct {
	Seconds    float64
	GoMaxProcs int
	NProc      int
	GoVersion  string
	Method     string
}

func conditionsOf(r record) conditions {
	return conditions{r.Seconds, r.GoMaxProcs, r.NProc, r.GoVersion, r.Method}
}

// valuesOf collects one metric's values over a workload's runs.
func valuesOf(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, positive
// when worse and negative when better, by the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func compareRecords(a, b []record, w, stderr io.Writer) int {
	all := slices.Concat(a, b)
	for _, r := range all {
		if c, first := conditionsOf(r), conditionsOf(all[0]); c != first {
			fmt.Fprintf(stderr, "bench: runs measured under different conditions cannot be compared: %+v (%s seed %d) against %+v\n", c, r.Workload, r.Seed, first)
			return 2
		}
	}
	bad := 0
	for _, r := range all {
		if r.Failed > 0 {
			fmt.Fprintf(w, "FAILED OPS  %s seed %d: %d of %d\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			bad++
		}
	}
	for _, p := range plans {
		fmt.Fprintf(w, "%s\n  %-26s %4s %12s %12s %12s %8s | %4s %12s %12s %12s %8s | %8s %6s\n", p.name,
			"metric", "a.n", "a.q1", "a.median", "a.q3", "a.iqr", "b.n", "b.q1", "b.median", "b.q3", "b.iqr", "worse", "bound")
		for _, d := range endToEnd {
			va, vb := valuesOf(a, p.name, d.Name), valuesOf(b, p.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-26s %4d %50s | %4d %50s |  MISSING: nothing to compare\n", d.Name, len(va), "", len(vb), "")
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := worsening(d, a2, b2)
			verdict := ""
			switch {
			case worse > d.Bound:
				verdict = "  WORSE BEYOND BOUND"
				bad++
			case worse < -d.Bound:
				verdict = "  BETTER BEYOND BOUND"
				bad++
			}
			fmt.Fprintf(w, "  %-26s %4d %12.4f %12.4f %12.4f %7.1f%% | %4d %12.4f %12.4f %12.4f %7.1f%% | %+7.1f%% %5.0f%%%s\n",
				d.Name, len(va), a1, a2, a3, 100*spread(va), len(vb), b1, b2, b3, 100*spread(vb), 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d problems: the two sets differ beyond a bound, or there was nothing to compare\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every end-to-end metric of every workload agrees within its bound")
	return 0
}
