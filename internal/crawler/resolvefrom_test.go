package crawler_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dnstrust/internal/crawler"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// errClass maps a resolution error to the sentinel it wraps, so two
// resolutions that failed for the same reason compare equal even when
// their messages name different servers.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range []error{
		resolver.ErrNXDomain, resolver.ErrNoData, resolver.ErrLameDelegation,
		resolver.ErrNoServers, resolver.ErrDepthExceeded, resolver.ErrCNAMELoop,
	} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other"
}

// contactedRoot reports whether a resolution asked a root server.
func contactedRoot(tr resolver.Trace) bool {
	for _, st := range tr {
		if st.Zone == "" {
			return true
		}
	}
	return false
}

// TestResolveFromMatchesRoot is the oracle for resolving through the
// survey's walker: on a crawled world, a resolution that starts at the
// deepest cut the walker holds must answer exactly as one that starts at
// the root, in one upstream query where the root-started one needs
// several. When every server of a remembered cut is lame, the resolution
// must restart from the root and still answer as Resolve does.
func TestResolveFromMatchesRoot(t *testing.T) {
	ctx := context.Background()
	world, err := topology.Generate(topology.GenParams{Seed: 11, Names: 2000})
	if err != nil {
		t.Fatal(err)
	}
	src := world.Registry.Source()
	defer src.Close()
	r, err := world.Registry.Resolver(src)
	if err != nil {
		t.Fatal(err)
	}
	e := crawler.NewEngine(r, nil, crawler.Config{Workers: 4})
	defer e.Close()
	s, err := e.Add(ctx, world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	d := s.Delegations
	if d == nil {
		t.Fatal("an engine's survey must carry its walker as Delegations")
	}

	counter := transport.NewCounter()
	up := transport.Chain(world.Registry.Source(), counter.Middleware())
	defer up.Close()
	rr, err := resolver.New(up, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(f func()) int64 {
		before := counter.Queries()
		f()
		return counter.Queries() - before
	}

	oneQuery := 0
	for _, n := range s.Names {
		var want, got *resolver.Result
		var werr, gerr error
		rootCost := cost(func() { want, werr = rr.Resolve(ctx, n, dnswire.TypeA) })
		cutCost := cost(func() { got, gerr = rr.ResolveFrom(ctx, d, n, dnswire.TypeA) })
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("%s: ResolveFrom error %v, Resolve error %v", n, gerr, werr)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%s: ResolveFrom records %v, Resolve records %v", n, got.Records, want.Records)
		}
		apex, _ := d.DeepestCut(n)
		if apex == "" || gerr != nil || got.CanonicalName != n || len(got.Trace) != 1 {
			continue // no cut known, a failure, an alias, or a lame first server
		}
		oneQuery++
		if cutCost != 1 {
			t.Fatalf("%s: ResolveFrom cost %d upstream queries, want 1", n, cutCost)
		}
		if rootCost < 2 {
			t.Fatalf("%s: Resolve cost %d upstream queries, want >= 2", n, rootCost)
		}
	}
	if oneQuery < len(s.Names)/2 {
		t.Fatalf("only %d of %d names resolved from a known cut in one query", oneQuery, len(s.Names))
	}

	// Lame every server of one remembered cut: the resolution must fall
	// back to the root and answer (or fail) exactly as Resolve does.
	var name, apex string
	var cut []resolver.ServerAddr
	for _, n := range s.Names {
		if a, srv := d.DeepestCut(n); a != "" && len(srv) > 0 {
			name, apex, cut = n, a, srv
			break
		}
	}
	if name == "" {
		t.Fatal("no crawled name has a known cut")
	}
	for _, srv := range cut {
		if err := world.Registry.SetLame(srv.Host, true); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, srv := range cut {
			world.Registry.SetLame(srv.Host, false)
		}
	}()
	checked := 0
	for _, n := range s.Names {
		if a, _ := d.DeepestCut(n); a != apex {
			continue
		}
		checked++
		want, werr := rr.Resolve(ctx, n, dnswire.TypeA)
		got, gerr := rr.ResolveFrom(ctx, d, n, dnswire.TypeA)
		if errClass(gerr) != errClass(werr) || !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%s with zone %q lame: ResolveFrom (%v, %v), Resolve (%v, %v)",
				n, apex, got.Records, gerr, want.Records, werr)
		}
		if !contactedRoot(got.Trace) {
			t.Fatalf("%s with zone %q lame: ResolveFrom never restarted from the root: %v", n, apex, got.Trace)
		}
	}
	if checked == 0 {
		t.Fatalf("no crawled name under zone %q", apex)
	}
	t.Logf("%d of %d names resolved from a known cut in one query; %d fell back past lame zone %q",
		oneQuery, len(s.Names), checked, apex)
}
