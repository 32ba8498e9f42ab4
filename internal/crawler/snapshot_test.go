package crawler_test

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"dnstrust/internal/analysis"
	"dnstrust/internal/atomicio"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/vulndb"
)

// TestEngineSnapshotRoundTrip is the restart contract at the engine
// level: an engine restored from a snapshot reproduces the last
// committed generation's Survey — names, graph reads, banners,
// vulnerability scoring, summary — with zero transport queries, and then
// keeps crawling incrementally like the original would.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 31, Names: 300})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := openEngine(t, world, crawler.Config{Workers: 4})
	defer e.Close()
	ctx := context.Background()
	half := len(world.Corpus) / 2
	if _, err := e.Add(ctx, world.Corpus[:half]...); err != nil {
		t.Fatal(err)
	}
	orig, err := e.Add(ctx, world.Corpus[half:]...)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "engine.snap")
	if _, err := atomicio.WriteFile(path, func(w io.Writer) error {
		return e.WriteSnapshot(w)
	}); err != nil {
		t.Fatal(err)
	}

	// Restore over a fresh transport chain with its own query counter: the
	// restored view must be served entirely from the snapshot.
	counter := transport.NewCounter()
	tr := transport.Chain(world.Registry.Source(), counter.Middleware())
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	re, err := crawler.NewEngineFromSnapshot(r, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4, Source: tr}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := counter.Queries(); got != 0 {
		t.Fatalf("snapshot restore issued %d transport queries, want 0", got)
	}

	v := re.View()
	if v.Stats.Generation != orig.Stats.Generation {
		t.Fatalf("restored generation = %d, want %d", v.Stats.Generation, orig.Stats.Generation)
	}
	if !reflect.DeepEqual(v.Names, orig.Names) {
		t.Fatalf("restored names differ: %d vs %d", len(v.Names), len(orig.Names))
	}
	if !reflect.DeepEqual(bannerTable(v), bannerTable(orig)) {
		t.Fatal("restored banners differ")
	}
	if !reflect.DeepEqual(vulnTable(v), vulnTable(orig)) {
		t.Fatal("restored vulnerability tables differ")
	}
	if len(v.Failed) != len(orig.Failed) {
		t.Fatalf("restored failures = %d, want %d", len(v.Failed), len(orig.Failed))
	}
	for n, err := range orig.Failed {
		if g, ok := v.Failed[n]; !ok || g.Error() != err.Error() {
			t.Fatalf("Failed[%q] = %v, want %v", n, v.Failed[n], err)
		}
	}
	for _, n := range orig.Names {
		ot, err := orig.Graph.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := v.Graph.TCB(n)
		if err != nil || !reflect.DeepEqual(rt, ot) {
			t.Fatalf("TCB(%s) differs after restore (%v)", n, err)
		}
	}
	want := analysis.Summarize(orig, orig.Names)
	got := analysis.Summarize(v, v.Names)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary differs after restore:\n got %+v\nwant %+v", got, want)
	}

	// The restored engine is a live engine: the same post-restart Add on
	// both sides commits equivalent next generations.
	extra := []string{"www.late0.example", "www.late1.example"}
	s1, err1 := e.Add(ctx, extra...)
	s2, err2 := re.Add(ctx, extra...)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s2.Stats.Generation != s1.Stats.Generation {
		t.Fatalf("post-restart generation = %d, want %d", s2.Stats.Generation, s1.Stats.Generation)
	}
	if !reflect.DeepEqual(s2.Names, s1.Names) {
		t.Fatal("post-restart names diverge")
	}
	if len(s2.Failed) != len(s1.Failed) {
		t.Fatalf("post-restart failures diverge: %d vs %d", len(s2.Failed), len(s1.Failed))
	}
}

// TestEngineSnapshotFreshEngine covers the degenerate save: an engine
// snapshotted before any Add restores to generation zero and accepts its
// first batch normally.
func TestEngineSnapshotFreshEngine(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 37, Names: 50})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := openEngine(t, world, crawler.Config{})
	defer e.Close()
	path := filepath.Join(t.TempDir(), "fresh.snap")
	if _, err := atomicio.WriteFile(path, func(w io.Writer) error {
		return e.WriteSnapshot(w)
	}); err != nil {
		t.Fatal(err)
	}
	tr := world.Registry.Source()
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	re, err := crawler.NewEngineFromSnapshot(r, world.Registry.ProbeFunc(tr), crawler.Config{Source: tr}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if g := re.View().Stats.Generation; g != 0 {
		t.Fatalf("fresh snapshot restored at generation %d", g)
	}
	s, err := re.Add(context.Background(), world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Generation != 1 || len(s.Names) != len(world.Corpus) {
		t.Fatalf("first post-restore add: gen %d, %d names", s.Stats.Generation, len(s.Names))
	}
}

// bannerTable lists every host's banner by host name.
func bannerTable(s *crawler.Survey) map[string]string {
	out := make(map[string]string, s.Graph.NumHosts())
	for id, h := range s.Graph.Hosts() {
		out[h] = s.HostBanner(int32(id))
	}
	return out
}

// vulnTable lists the exploits of every vulnerable host by host name.
func vulnTable(s *crawler.Survey) map[string][]vulndb.Vuln {
	out := make(map[string][]vulndb.Vuln)
	for id, h := range s.Graph.Hosts() {
		if vs := s.HostVulns(int32(id)); len(vs) > 0 {
			out[h] = vs
		}
	}
	return out
}
