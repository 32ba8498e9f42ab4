package crawler_test

import (
	"context"
	"reflect"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

// runSurvey crawls a generated world end to end.
func runSurvey(t *testing.T, names int, workers int) (*topology.World, *crawler.Survey) {
	t.Helper()
	w, err := topology.Generate(topology.GenParams{Seed: 2, Names: names})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Registry.Source()
	r, err := w.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crawler.Run(context.Background(), r, w.Corpus,
		w.Registry.ProbeFunc(tr), crawler.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestSurveyEndToEnd(t *testing.T) {
	w, s := runSurvey(t, 800, 4)
	if len(s.Names) != len(w.Corpus) {
		t.Errorf("surveyed %d of %d names (failed: %d)", len(s.Names), len(w.Corpus), len(s.Failed))
	}
	for n, err := range s.Failed {
		t.Errorf("failed %s: %v", n, err)
	}
	if s.Graph.NumHosts() == 0 {
		t.Fatal("no hosts discovered")
	}
	// Every corpus name must have a TCB.
	for _, n := range s.Names[:50] {
		if s.Graph.TCBSize(n) <= 0 {
			t.Errorf("TCB of %s is %d", n, s.Graph.TCBSize(n))
		}
	}
}

func TestSurveyBanners(t *testing.T) {
	w, s := runSurvey(t, 600, 4)
	// Every discovered host must carry the banner its server answers
	// (possibly hidden), by name and by id.
	hosts := s.Graph.Hosts()
	for id, h := range hosts {
		if got, want := s.Banner(h), w.Registry.Server(h).Banner; got != want || s.HostBanner(int32(id)) != want {
			t.Fatalf("banner of %s = %q (by id %q), want %q", h, got, s.HostBanner(int32(id)), want)
		}
	}
	// Vulnerable servers exist and are a plausible minority.
	v := s.VulnerableHosts()
	frac := float64(v) / float64(len(hosts))
	if frac < 0.05 || frac > 0.40 {
		t.Errorf("vulnerable fraction = %.2f (%d/%d), outside plausible band", frac, v, len(hosts))
	}
}

func TestSurveyDeterministic(t *testing.T) {
	_, s1 := runSurvey(t, 400, 1)
	_, s2 := runSurvey(t, 400, 8)
	if s1.Graph.NumHosts() != s2.Graph.NumHosts() {
		t.Errorf("host counts differ across parallelism: %d vs %d",
			s1.Graph.NumHosts(), s2.Graph.NumHosts())
	}
	if len(s1.Names) != len(s2.Names) {
		t.Fatalf("name counts differ: %d vs %d", len(s1.Names), len(s2.Names))
	}
	for i := range s1.Names {
		if s1.Names[i] != s2.Names[i] {
			t.Fatalf("names differ at %d", i)
		}
		a, b := s1.Graph.TCBSize(s1.Names[i]), s2.Graph.TCBSize(s2.Names[i])
		if a != b {
			t.Fatalf("TCB(%s) differs: %d vs %d", s1.Names[i], a, b)
		}
		// Rendering must not leak intern ids, which follow the schedule.
		da, err1 := s1.Graph.DOT(s1.Names[i])
		db, err2 := s2.Graph.DOT(s2.Names[i])
		if err1 != nil || err2 != nil || da != db {
			t.Fatalf("DOT(%s) differs across parallelism (errors %v, %v)", s1.Names[i], err1, err2)
		}
		// Nor may the bottleneck's server list: same servers, same order.
		if i%7 != 0 {
			continue
		}
		ca, err1 := analysis.BottleneckOf(s1, s1.Names[i])
		cb, err2 := analysis.BottleneckOf(s2, s2.Names[i])
		if err1 != nil || err2 != nil || !reflect.DeepEqual(ca, cb) {
			t.Fatalf("Bottleneck(%s) differs across parallelism: %+v vs %+v (errors %v, %v)", s1.Names[i], ca, cb, err1, err2)
		}
	}
}

func TestSurveyCompromisable(t *testing.T) {
	_, s := runSurvey(t, 600, 4)
	// Compromisable implies vulnerable.
	for _, h := range s.Graph.Hosts() {
		if s.Compromisable(h) && !s.Vulnerable(h) {
			t.Fatalf("%s compromisable but not vulnerable", h)
		}
	}
}

func TestSurveySkipProbe(t *testing.T) {
	w, err := topology.Generate(topology.GenParams{Seed: 3, Names: 200})
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := crawler.Run(context.Background(), r, w.Corpus, nil, crawler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.VulnerableHosts() != 0 {
		t.Error("without probing, every server must be optimistically safe")
	}
}

func TestSurveyEmptyCorpus(t *testing.T) {
	w, err := topology.Generate(topology.GenParams{Seed: 3, Names: 200})
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crawler.Run(context.Background(), r, nil, nil, crawler.Config{}); err == nil {
		t.Error("empty corpus must error")
	}
}

func TestSurveyCancellation(t *testing.T) {
	w, err := topology.Generate(topology.GenParams{Seed: 3, Names: 500})
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := crawler.Run(ctx, r, w.Corpus, nil, crawler.Config{}); err == nil {
		t.Error("cancelled crawl must error")
	}
}

func TestSurveyProgressCallback(t *testing.T) {
	w, err := topology.Generate(topology.GenParams{Seed: 4, Names: 2500})
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, err = crawler.Run(context.Background(), r, w.Corpus, nil, crawler.Config{
		Progress: func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("progress callback never invoked")
	}
}

// TestEngineProgressOnReAdd: progress counts the batch's own results, so
// re-adding names the survey already holds reports at the same coarse
// interval as a first crawl and ends at done == total.
func TestEngineProgressOnReAdd(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 4, Names: 2500})
	if err != nil {
		t.Fatal(err)
	}
	type call struct{ done, total int }
	var calls []call
	e, _ := openEngine(t, world, crawler.Config{
		Progress: func(done, total int) { calls = append(calls, call{done, total}) },
	})
	defer e.Close()
	ctx := context.Background()
	n := len(world.Corpus)
	for _, batch := range []string{"first crawl", "re-add"} {
		calls = nil
		if _, err := e.Add(ctx, world.Corpus...); err != nil {
			t.Fatal(err)
		}
		if max := (n+999)/1000 + 1; len(calls) == 0 || len(calls) > max {
			t.Fatalf("%s of %d names: %d progress calls, want 1..%d", batch, n, len(calls), max)
		}
		if last := calls[len(calls)-1]; last.done != last.total || last.total != n {
			t.Errorf("%s: last progress call %d/%d, want %d/%d", batch, last.done, last.total, n, n)
		}
	}
}
