package crawler_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

func openEngine(t *testing.T, world *topology.World, cfg crawler.Config) (*crawler.Engine, *transport.Counter) {
	t.Helper()
	counter := transport.NewCounter()
	tr := transport.Chain(world.Registry.Source(), counter.Middleware())
	cfg.Source = tr
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	return crawler.NewEngine(r, world.Registry.ProbeFunc(tr), cfg), counter
}

// TestEngineIncrementalMatchesBatch is the Engine's equivalence gate: a
// corpus fed across three Adds must commit exactly the survey a one-shot
// Run of the whole corpus produces — same names, same graph shape, same
// TCBs, same vulnerability scoring.
func TestEngineIncrementalMatchesBatch(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 21, Names: 400})
	if err != nil {
		t.Fatal(err)
	}

	e, _ := openEngine(t, world, crawler.Config{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	third := len(world.Corpus) / 3
	var inc *crawler.Survey
	for _, batch := range [][]string{
		world.Corpus[:third], world.Corpus[third : 2*third], world.Corpus[2*third:],
	} {
		if inc, err = e.Add(ctx, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if got := inc.Stats.Generation; got != 3 {
		t.Errorf("generation after 3 adds = %d", got)
	}

	tr := world.Registry.Source()
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := crawler.Run(ctx, r, world.Corpus, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(inc.Names, batch.Names) {
		t.Fatalf("incremental names differ from batch: %d vs %d", len(inc.Names), len(batch.Names))
	}
	if inc.Graph.NumHosts() != batch.Graph.NumHosts() || inc.Graph.NumZones() != batch.Graph.NumZones() {
		t.Fatalf("graph shape differs: %d/%d hosts, %d/%d zones",
			inc.Graph.NumHosts(), batch.Graph.NumHosts(), inc.Graph.NumZones(), batch.Graph.NumZones())
	}
	for _, n := range batch.Names {
		it, err := inc.Graph.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := batch.Graph.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(it, bt) {
			t.Fatalf("TCB(%s) differs between incremental and batch", n)
		}
	}
	if inc.VulnerableHosts() != batch.VulnerableHosts() {
		t.Errorf("vulnerable hosts: incremental %d, batch %d", inc.VulnerableHosts(), batch.VulnerableHosts())
	}
}

// TestEngineAddMemoizedIsTransportFree asserts the incremental-reuse
// guarantee at the transport boundary: re-adding names whose dependency
// structure is already walked issues zero queries.
func TestEngineAddMemoizedIsTransportFree(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 23, Names: 200})
	if err != nil {
		t.Fatal(err)
	}
	e, tr := openEngine(t, world, crawler.Config{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Add(ctx, world.Corpus...); err != nil {
		t.Fatal(err)
	}
	before := tr.Queries()
	if before == 0 {
		t.Fatal("first add issued no transport queries")
	}
	s, err := e.Add(ctx, world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Queries(); got != before {
		t.Errorf("re-add issued %d transport queries, want 0", got-before)
	}
	if int(s.Stats.Generation) != 2 {
		t.Errorf("generation = %d, want 2", s.Stats.Generation)
	}
	if len(s.Names) != len(world.Corpus) {
		t.Errorf("re-add changed the name count: %d", len(s.Names))
	}
}

// TestEngineViewIsolationUnderAdd is the -race contract behind the
// public View API: a committed Survey must stay byte-identical — and be
// freely readable, including lazy Snapshot reconstruction and analysis
// passes — while the next Add streams into the shared walker and
// builder.
func TestEngineViewIsolationUnderAdd(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 29, Names: 500})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := openEngine(t, world, crawler.Config{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	half := len(world.Corpus) / 2
	v1, err := e.Add(ctx, world.Corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}

	// Record v1's observable state before the concurrent Add.
	wantNames := append([]string(nil), v1.Names...)
	wantTCB := map[string]int{}
	for _, n := range wantNames {
		wantTCB[n] = v1.Graph.TCBSize(n)
	}
	wantSummary := analysis.Summarize(v1, v1.Names)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readErrs := make(chan string, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Analysis reads over the committed view race the crawl.
				sum := analysis.Summarize(v1, v1.Names)
				if sum.Names != wantSummary.Names || sum.Servers != wantSummary.Servers {
					readErrs <- "summary changed under a concurrent Add"
					return
				}
				for _, n := range wantNames[:20] {
					if v1.Graph.TCBSize(n) != wantTCB[n] {
						readErrs <- "TCB changed under a concurrent Add"
						return
					}
				}
				if e.View().Stats.Generation < 1 {
					readErrs <- "committed view regressed"
					return
				}
			}
		}()
	}

	v2, err := e.Add(ctx, world.Corpus[half:]...)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-readErrs:
		t.Fatal(msg)
	default:
	}

	// v1 is still exactly what it was; v2 superseded it.
	if !reflect.DeepEqual(v1.Names, wantNames) {
		t.Error("v1 names changed after the second Add")
	}
	for _, n := range wantNames {
		if v1.Graph.TCBSize(n) != wantTCB[n] {
			t.Fatalf("v1 TCB(%s) changed after the second Add", n)
		}
	}
	if len(v2.Names) != len(world.Corpus) {
		t.Errorf("v2 has %d names, want %d", len(v2.Names), len(world.Corpus))
	}
	if e.View() != v2 {
		t.Error("View() is not the latest committed generation")
	}
}

// TestEngineClosedRejectsAdd verifies the write side ends at Close while
// committed views stay readable.
func TestEngineClosedRejectsAdd(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 23, Names: 60})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := openEngine(t, world, crawler.Config{})
	s, err := e.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(context.Background(), "www.late.example"); err == nil {
		t.Error("Add after Close must fail")
	}
	if got := e.View(); got != s {
		t.Error("committed view lost after Close")
	}
	if s.Graph.TCBSize(s.Names[0]) <= 0 {
		t.Error("closed engine's view must stay readable")
	}
}

// TestEngineAbsorbsDiscoveriesBetweenAdds: a walker descent outside any
// Add (a proxy asking Cut for a never-seen name) must not block or
// panic, and what it discovers must reach the next generation. Cuts run
// before the first Add, between Adds and concurrently with one; once
// every name is added, the engine must hold the survey a one-shot Run
// of the same corpus produces.
func TestEngineAbsorbsDiscoveriesBetweenAdds(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 31, Names: 300})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := openEngine(t, world, crawler.Config{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	w := e.View().Walker
	corpus := world.Corpus
	cut := func(name string) string {
		t.Helper()
		apex, _, err := w.Cut(ctx, name)
		if err != nil || apex == "" {
			t.Fatalf("Cut(%s) = %q (%v)", name, apex, err)
		}
		return apex
	}
	holds := func(s *crawler.Survey, apex, when string) {
		t.Helper()
		if !slices.Contains(s.Graph.Zones(), apex) {
			t.Errorf("zone %q discovered %s is missing from generation %d", apex, when, s.Stats.Generation)
		}
		if _, ok := s.Graph.NameChainID(corpus[0]); ok && s.Stats.Generation < 3 {
			t.Errorf("a Cut made %s part of the survey", corpus[0])
		}
	}

	first := cut(corpus[0])
	s, err := e.Add(ctx, corpus[10:100]...)
	if err != nil {
		t.Fatal(err)
	}
	holds(s, first, "before the first Add")

	second := cut(corpus[1])
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, n := range corpus[2:10] {
			if _, _, err := w.Cut(ctx, n); err != nil {
				t.Errorf("concurrent Cut(%s): %v", n, err)
			}
		}
	}()
	s, err = e.Add(ctx, corpus[100:200]...)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	holds(s, second, "between Adds")

	all := append(append([]string{}, corpus[:10]...), corpus[200:]...)
	if s, err = e.Add(ctx, all...); err != nil {
		t.Fatal(err)
	}
	tr := world.Registry.Source()
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := crawler.Run(ctx, r, corpus, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Names, batch.Names) || s.Graph.NumHosts() != batch.Graph.NumHosts() || s.Graph.NumZones() != batch.Graph.NumZones() {
		t.Fatalf("engine with Cuts: %d names, %d hosts, %d zones; one-shot Run: %d, %d, %d",
			len(s.Names), s.Graph.NumHosts(), s.Graph.NumZones(),
			len(batch.Names), batch.Graph.NumHosts(), batch.Graph.NumZones())
	}
	for _, n := range batch.Names {
		got, _ := s.Graph.TCB(n)
		want, _ := batch.Graph.TCB(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TCB(%s) differs from the one-shot Run", n)
		}
	}
}
