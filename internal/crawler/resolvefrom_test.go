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
		resolver.ErrNoServers, resolver.ErrCNAMELoop,
	} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other"
}

// TestResolveFromMatchesRoot is the oracle for resolving through the
// survey's walker: on a crawled world, every surveyed name must answer
// exactly as a root-started resolution does, in one upstream query (the
// final question, asked at the cut the walk judged) where the
// root-started one needs several.
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
	w := s.Walker
	if w == nil {
		t.Fatal("an engine's survey must carry its walker")
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

	walkerQueries := e.Queries()
	for _, n := range s.Names {
		var want, got *resolver.Result
		var werr, gerr error
		rootCost := cost(func() { want, werr = rr.Resolve(ctx, n, dnswire.TypeA) })
		cutCost := cost(func() { got, gerr = rr.ResolveFrom(ctx, w, n, dnswire.TypeA) })
		if errClass(gerr) != errClass(werr) {
			t.Fatalf("%s: ResolveFrom error %v, Resolve error %v", n, gerr, werr)
		}
		if !reflect.DeepEqual(got.Records, want.Records) || got.AuthZone != want.AuthZone {
			t.Fatalf("%s: ResolveFrom %v in %q, Resolve %v in %q", n, got.Records, got.AuthZone, want.Records, want.AuthZone)
		}
		if cutCost != 1 {
			t.Fatalf("%s: ResolveFrom cost %d upstream queries, want 1", n, cutCost)
		}
		if rootCost < 2 {
			t.Fatalf("%s: Resolve cost %d upstream queries, want >= 2", n, rootCost)
		}
	}
	if n := e.Queries() - walkerQueries; n != 0 {
		t.Errorf("resolving surveyed names sent %d queries through the walker, want 0", n)
	}
}
