package analysis_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/topology"
)

// sharedSurvey crawls one moderately sized world once for all tests.
var (
	surveyOnce sync.Once
	gWorld     *topology.World
	gSurvey    *crawler.Survey
	surveyErr  error
)

func survey(t *testing.T) (*topology.World, *crawler.Survey) {
	t.Helper()
	surveyOnce.Do(func() {
		w, err := topology.Generate(topology.GenParams{Seed: 5, Names: 3000})
		if err != nil {
			surveyErr = err
			return
		}
		tr := w.Registry.Source()
		r, err := w.Registry.Resolver(tr)
		if err != nil {
			surveyErr = err
			return
		}
		s, err := crawler.Run(context.Background(), r, w.Corpus,
			w.Registry.ProbeFunc(tr), crawler.Config{})
		if err != nil {
			surveyErr = err
			return
		}
		gWorld, gSurvey = w, s
	})
	if surveyErr != nil {
		t.Fatal(surveyErr)
	}
	return gWorld, gSurvey
}

func TestCDFBasics(t *testing.T) {
	c := analysis.NewCDF([]int{5, 1, 3, 3, 9})
	if c.N() != 5 || c.Median() != 3 || c.Max() != 9 {
		t.Errorf("n=%d median=%d max=%d", c.N(), c.Median(), c.Max())
	}
	if got := c.Mean(); math.Abs(got-4.2) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
	if got := c.FracAbove(3); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("FracAbove(3) = %v", got)
	}
	if got := c.FracAtMost(3); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("FracAtMost(3) = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Q0 = %d", got)
	}
	if got := c.Quantile(1); got != 9 {
		t.Errorf("Q1 = %d", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := analysis.NewCDF(nil)
	if c.N() != 0 || c.Mean() != 0 || c.Median() != 0 || c.Max() != 0 {
		t.Error("empty CDF must be all zeros")
	}
	if c.Curve(10) != nil {
		t.Error("empty curve must be nil")
	}
}

func TestCDFCurveMonotone(t *testing.T) {
	_, s := survey(t)
	sizes := analysis.TCBSizes(s, s.Names)
	curve := analysis.NewCDF(sizes).Curve(100)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].X <= curve[i-1].X || curve[i].Pct < curve[i-1].Pct {
			t.Fatalf("curve not monotone at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
	if last := curve[len(curve)-1]; math.Abs(last.Pct-100) > 1e-9 {
		t.Errorf("curve must end at 100%%, got %v", last.Pct)
	}
}

func TestTLDAveragesOrdering(t *testing.T) {
	_, s := survey(t)
	avgs := analysis.TLDAverages(s, s.Names)
	if len(avgs) < 20 {
		t.Fatalf("only %d TLDs in survey", len(avgs))
	}
	for i := 1; i < len(avgs); i++ {
		if avgs[i-1].MeanTCB < avgs[i].MeanTCB {
			t.Fatal("averages not sorted descending")
		}
	}
	// The paper's macro statement: ccTLDs average far above gTLDs.
	cc := analysis.MacroAverage(analysis.FilterKind(avgs, dnsname.KindCountry))
	gen := analysis.MacroAverage(analysis.FilterKind(avgs, dnsname.KindGeneric))
	if cc <= gen {
		t.Errorf("ccTLD macro average %.1f should exceed gTLD %.1f", cc, gen)
	}
}

func TestFigure4WorstCCTLDs(t *testing.T) {
	_, s := survey(t)
	avgs := analysis.FilterKind(analysis.TLDAverages(s, s.Names), dnsname.KindCountry)
	rank := map[string]int{}
	for i, a := range avgs {
		rank[a.TLD] = i
	}
	// ua must rank worst among ccTLDs; the pathological set must beat the
	// well-run set.
	if rank["ua"] > 3 {
		t.Errorf("ua ranks %d, want among the very worst", rank["ua"])
	}
	for _, bad := range []string{"ua", "by", "pl", "it"} {
		for _, good := range []string{"de", "uk", "jp"} {
			if rank[bad] > rank[good] {
				t.Errorf("%s (rank %d) should be worse than %s (rank %d)",
					bad, rank[bad], good, rank[good])
			}
		}
	}
}

func TestFigure3GTLDs(t *testing.T) {
	_, s := survey(t)
	avgs := analysis.FilterKind(analysis.TLDAverages(s, s.Names), dnsname.KindGeneric)
	rank := map[string]float64{}
	for _, a := range avgs {
		rank[a.TLD] = a.MeanTCB
	}
	// aero and int must dominate; com must be among the smallest.
	if rank["aero"] < rank["com"]*2 {
		t.Errorf("aero avg %.0f should dwarf com %.0f", rank["aero"], rank["com"])
	}
	if rank["int"] < rank["com"]*2 {
		t.Errorf("int avg %.0f should dwarf com %.0f", rank["int"], rank["com"])
	}
}

func TestVulnInTCBAndSafety(t *testing.T) {
	_, s := survey(t)
	vulns := analysis.VulnInTCB(s, s.Names)
	safety := analysis.TCBSafety(s, s.Names)
	if len(vulns) != len(safety) {
		t.Fatalf("length mismatch %d vs %d", len(vulns), len(safety))
	}
	sizes := analysis.TCBSizes(s, s.Names)
	for i := range vulns {
		if vulns[i] < 0 || vulns[i] > sizes[i] {
			t.Fatalf("vuln count %d outside [0,%d]", vulns[i], sizes[i])
		}
		wantSafety := 100 * float64(sizes[i]-vulns[i]) / float64(sizes[i])
		if math.Abs(safety[i]-wantSafety) > 1e-9 {
			t.Fatalf("safety mismatch at %d: %v vs %v", i, safety[i], wantSafety)
		}
	}
	// The ws names must have fully vulnerable TCBs (0% safety).
	zeroSafety := 0
	for _, v := range safety {
		if v == 0 {
			zeroSafety++
		}
	}
	if zeroSafety == 0 {
		t.Error("no name with fully vulnerable TCB; the ws pathology is missing")
	}
}

func TestAffectedNamesPoisoning(t *testing.T) {
	_, s := survey(t)
	affected := analysis.AffectedNames(s, s.Names)
	fracServers := float64(s.VulnerableHosts()) / float64(s.Graph.NumHosts())
	fracNames := float64(affected) / float64(len(s.Names))
	// The paper's poisoning effect: the fraction of affected names far
	// exceeds the fraction of vulnerable servers.
	if fracNames < fracServers {
		t.Errorf("affected names %.2f should exceed vulnerable servers %.2f (transitive poisoning)",
			fracNames, fracServers)
	}
	if fracNames < 0.2 || fracNames > 0.9 {
		t.Errorf("affected fraction %.2f outside plausible band", fracNames)
	}
}

func TestControlStats(t *testing.T) {
	_, s := survey(t)
	ctrl := analysis.Control(s, s.Names)
	if ctrl.TotalNames != len(s.Names) {
		t.Errorf("total = %d, want %d", ctrl.TotalNames, len(s.Names))
	}
	// gTLD servers control essentially every com/net name: the top entry
	// must control a majority of names.
	if top := ctrl.Ranked[0]; top.Names < ctrl.TotalNames/2 {
		t.Errorf("top server %s controls %d of %d names; expected gTLD dominance",
			top.Host, top.Names, ctrl.TotalNames)
	}
	if ctrl.MeanControl() <= float64(ctrl.MedianControl()) {
		t.Error("control distribution should be heavy-tailed (mean >> median)")
	}
	big := ctrl.ControllingAtLeast(0.10)
	if len(big) < 19 {
		t.Errorf("only %d servers control >10%% of names; expect at least the gTLD+registry core", len(big))
	}
	// Consistency: every returned entry really is above threshold.
	for _, e := range big {
		if e.Names <= ctrl.TotalNames/10 {
			t.Fatalf("entry %s (%d) below threshold", e.Host, e.Names)
		}
	}
}

func TestControlFilters(t *testing.T) {
	_, s := survey(t)
	ctrl := analysis.Control(s, s.Names)
	edu := ctrl.FilterHostTLD("edu")
	if len(edu) == 0 {
		t.Fatal("no edu servers found")
	}
	for _, e := range edu {
		if dnsname.TLD(e.Host) != "edu" {
			t.Fatalf("non-edu host %s in edu filter", e.Host)
		}
	}
	vuln := ctrl.FilterVulnerable()
	if len(vuln) == 0 {
		t.Fatal("no vulnerable servers in control ranking")
	}
	for _, e := range vuln {
		if !e.Vulnerable {
			t.Fatal("non-vulnerable entry in vulnerable filter")
		}
	}
}

func TestRankCurve(t *testing.T) {
	_, s := survey(t)
	ctrl := analysis.Control(s, s.Names)
	pts := analysis.RankCurve(ctrl.Ranked, 50)
	if len(pts) == 0 || len(pts) > 50 {
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Rank <= pts[i-1].Rank {
			t.Fatal("ranks must increase")
		}
		if pts[i].Names > pts[i-1].Names {
			t.Fatal("names-controlled must not increase with rank")
		}
	}
}

func TestBottlenecks(t *testing.T) {
	_, s := survey(t)
	names := s.Names
	if len(names) > 600 {
		names = names[:600]
	}
	stats, err := analysis.Bottlenecks(context.Background(), s, names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Names != len(names) {
		t.Errorf("analyzed %d of %d", stats.Names, len(names))
	}
	cuts := stats.CutSizes
	// The paper: average min-cut 2.5 servers. Typical NS sets are 2-4.
	if cuts.Mean() < 1 || cuts.Mean() > 6 {
		t.Errorf("mean min-cut %.2f outside plausible band", cuts.Mean())
	}
	// Some names must be fully hijackable via vulnerable bottlenecks.
	if stats.FullyVulnerable == 0 {
		t.Error("no fully vulnerable bottlenecks found")
	}
	if stats.FullyVulnerable+stats.OneSafe > stats.Names {
		t.Error("bucket counts exceed names")
	}
}

func TestANDORBoundedByCut(t *testing.T) {
	_, s := survey(t)
	names := s.Names[:200]
	exact := analysis.ANDORHijackBound(s, names)
	if len(exact) != len(names) {
		t.Fatalf("exact results %d for %d names", len(exact), len(names))
	}
	for i, n := range names {
		if exact[i] < 1 {
			t.Fatalf("exact kill %d for %s", exact[i], n)
		}
		res, err := analysis.BottleneckOf(s, n)
		if err != nil {
			t.Fatal(err)
		}
		// The AND/OR optimum can never exceed the digraph cut (the cut is
		// a valid attack, the optimum is minimal).
		if exact[i] > int64(res.Size) {
			t.Fatalf("exact %d > min-cut %d for %s", exact[i], res.Size, n)
		}
	}
}

func TestSummarize(t *testing.T) {
	w, s := survey(t)
	sum := analysis.Summarize(s, s.Names)
	if sum.Names != len(s.Names) || sum.Servers != s.Graph.NumHosts() {
		t.Error("summary counts wrong")
	}
	if sum.TCB.Mean() <= 0 || sum.TCB.Median() <= 0 {
		t.Error("empty TCB stats")
	}
	if sum.OwnedMean < 0 || sum.OwnedMean > 5 {
		t.Errorf("owned mean %.2f outside plausible band (paper: 2.2)", sum.OwnedMean)
	}
	if sum.AffectedNames <= 0 || sum.AffectedNames > sum.Names {
		t.Errorf("affected = %d", sum.AffectedNames)
	}
	// Popular subset must have a larger mean TCB than the full corpus.
	popSum := analysis.Summarize(s, w.Popular)
	if popSum.TCB.Mean() <= sum.TCB.Mean() {
		t.Errorf("popular mean %.1f should exceed overall %.1f",
			popSum.TCB.Mean(), sum.TCB.Mean())
	}
}

func TestSafetyDistribution(t *testing.T) {
	_, s := survey(t)
	safety := analysis.TCBSafety(s, s.Names)
	pts := analysis.SafetyDistribution(safety, 100)
	if len(pts) == 0 {
		t.Fatal("empty distribution")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Safety < pts[i-1].Safety {
			t.Fatal("safety must be non-decreasing over rank")
		}
		if pts[i].RankPct <= pts[i-1].RankPct {
			t.Fatal("rank must increase")
		}
	}
}
