package analysis

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/topology"
)

var (
	passSurveyOnce sync.Once
	passSurveyS    *crawler.Survey
	passSurveyErr  error
)

// passSurvey crawls one generated world once for the pass-level tests: a
// few thousand distinct chains, so a pass spans many worker ranges.
func passSurvey(t *testing.T) *crawler.Survey {
	t.Helper()
	passSurveyOnce.Do(func() {
		w, err := topology.Generate(topology.GenParams{Seed: 9, Names: 4000})
		if err != nil {
			passSurveyErr = err
			return
		}
		tr := w.Registry.Source()
		r, err := w.Registry.Resolver(tr)
		if err != nil {
			passSurveyErr = err
			return
		}
		passSurveyS, passSurveyErr = crawler.Run(context.Background(), r, w.Corpus,
			w.Registry.ProbeFunc(tr), crawler.Config{})
	})
	if passSurveyErr != nil {
		t.Fatal(passSurveyErr)
	}
	return passSurveyS
}

// TestBottleneckStatsDeterministic holds BottleneckStats to the names
// given, whatever the schedule: a cold pass on one worker, a cold pass
// on eight and a pass served wholly from the memo return the same value,
// and its distributions are those of each name's own cut.
func TestBottleneckStatsDeterministic(t *testing.T) {
	s := passSurvey(t)
	ctx := context.Background()
	one, err := BottlenecksMemo(ctx, s, s.Names, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Names != len(s.Names) {
		t.Fatalf("analyzed %d of %d names", one.Names, len(s.Names))
	}
	memo := NewChainMemo()
	eight, err := BottlenecksMemo(ctx, s, s.Names, 8, memo)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BottlenecksMemo(ctx, s, s.Names, 8, memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Error("a cold 8-worker pass differs from a cold 1-worker pass")
	}
	if !reflect.DeepEqual(one, warm) {
		t.Error("a warm pass differs from a cold 1-worker pass")
	}
	// The distributions are the names' own cuts, one by one.
	sizes := make([]int, len(s.Names))
	safe := make([]int, len(s.Names))
	for i, name := range s.Names {
		res, err := BottleneckOf(s, name)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i], safe[i] = res.Size, res.SafeInCut
	}
	if !reflect.DeepEqual(one.CutSizes, NewCDF(sizes)) || !reflect.DeepEqual(one.SafeCounts, NewCDF(safe)) {
		t.Errorf("cut sizes %v, safe counts %v; one name at a time %v, %v", one.CutSizes, one.SafeCounts, NewCDF(sizes), NewCDF(safe))
	}
}

// TestMemoCutsMatchBottleneckOf holds the cuts a cold pass stores, one
// max-flow per digraph class copied to every member, to each chain's
// own: for one name per chain, the memo's entry (cut, size, safe and
// vulnerable servers) must equal BottleneckOf's, which solves that
// name's chain alone.
func TestMemoCutsMatchBottleneckOf(t *testing.T) {
	s := passSurvey(t)
	memo := NewChainMemo()
	if _, err := BottlenecksMemo(context.Background(), s, s.Names, 2, memo); err != nil {
		t.Fatal(err)
	}
	_, solves := memo.FoldWork()
	g, gen := s.Graph, s.Stats.Generation
	seen := map[int32]bool{}
	for _, name := range s.Names {
		cid, ok := g.NameChainID(name)
		if !ok || seen[cid] {
			continue
		}
		seen[cid] = true
		got, ok := memo.cut(cid, gen)
		if !ok {
			t.Fatalf("%s: the cold pass stored no cut for chain %d", name, cid)
		}
		want, err := BottleneckOf(s, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the memo's cut %+v, its own chain's %+v", name, got, want)
		}
	}
	t.Logf("%d chains, %d max-flow runs", len(seen), solves)
	if solves >= int64(len(seen)) {
		t.Fatalf("%d max-flow runs for %d chains: no class was shared", solves, len(seen))
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on — a pass checks Err once per claimed range, so the
// cancellation lands mid-pass however fast the machine is.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBottlenecksCancelResume cancels a pass after a few ranges: it must
// return the context's error with every worker gone, keep what it had
// finished in the memo, and a second call with a live context must
// return what an uninterrupted pass returns.
func TestBottlenecksCancelResume(t *testing.T) {
	s := passSurvey(t)
	want, err := BottlenecksMemo(context.Background(), s, s.Names, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	memo := NewChainMemo()
	ctx := &cancelAfter{Context: context.Background()}
	ctx.left.Store(6)
	if stats, err := BottlenecksMemo(ctx, s, s.Names, 2, memo); err != context.Canceled || stats != nil {
		t.Fatalf("cancelled pass returned (%v, %v), want (nil, context.Canceled)", stats, err)
	}
	// The workers have been waited for; give their exits a moment to
	// leave the scheduler's count.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled pass, %d before it", n, before)
	}
	memo.mu.RLock()
	stored := len(memo.cuts)
	memo.mu.RUnlock()
	if chains := s.Graph.NumChains(); stored == 0 || stored >= chains {
		t.Fatalf("cancelled pass stored %d of %d chains, want some but not all", stored, chains)
	}

	got, err := BottlenecksMemo(context.Background(), s, s.Names, 2, memo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the resumed pass differs from an uninterrupted one")
	}
}

// TestSolveZeroAllocs is the runtime half of solve's hot-path contract:
// on scratch that has already served the largest chain, a fill plus both
// cuts allocate nothing — on that chain, and on a two-host chain of
// another graph, where the stale scratch is longest and the pooled
// scratch's habit of moving between graphs is exercised. The Result a
// caller keeps is built outside solve.
//
// alloc-gate: dnstrust/internal/analysis.(*cutScratch).solve
func TestSolveZeroAllocs(t *testing.T) {
	big := passSurvey(t)
	largest := int32(0)
	for cid := int32(1); cid < int32(big.Graph.NumChains()); cid++ {
		if len(big.Graph.ChainTCBIDs(cid)) > len(big.Graph.ChainTCBIDs(largest)) {
			largest = cid
		}
	}
	small := memoWorld(t, 1)
	twoHosts, _ := small.Graph.NameChainID("www.x.com")
	if nl, ns := len(big.Graph.ChainTCBIDs(largest)), len(small.Graph.ChainTCBIDs(twoHosts)); nl < 100 || ns != 2 {
		t.Fatalf("TCBs of %d and %d hosts, want a large one and one of two", nl, ns)
	}

	var sc cutScratch
	for _, tc := range []struct {
		s   *crawler.Survey
		cid int32
	}{{big, largest}, {small, twoHosts}} {
		g, s := tc.s.Graph, tc.s
		vulnerable := func(h int32) bool { return len(s.HostVulns(h)) > 0 }
		if _, err := sc.solve(g, tc.cid, vulnerable); err != nil { // grows the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sc.solve(g, tc.cid, vulnerable); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("solve allocates %.1f times per chain on warm scratch (TCB of %d hosts)", allocs, len(g.ChainTCBIDs(tc.cid)))
		}
	}
}

// TestBottleneckOfUnknownName keeps the single-name entry points' error
// for a name the survey does not hold.
func TestBottleneckOfUnknownName(t *testing.T) {
	s := memoWorld(t, 1)
	if _, err := BottleneckOf(s, "unknown.example.com"); err == nil {
		t.Error("BottleneckOf of an unsurveyed name must error")
	}
	if _, err := BottleneckOfMemo(s, "unknown.example.com", NewChainMemo()); err == nil {
		t.Error("BottleneckOfMemo of an unsurveyed name must error")
	}
}

// TestBottlenecksUncomputable: a pass in which no name has a computable
// cut reports why instead of returning empty stats; one computable name
// is enough for stats, with the uncomputable one left out.
func TestBottlenecksUncomputable(t *testing.T) {
	b := core.NewBuilder(0)
	b.Complete("orphan.example", nil) // a name with no delegation chain
	s := crawler.FromGraph(b.Finish())
	if _, err := Bottlenecks(context.Background(), s, s.Names, 2); !errors.Is(err, core.ErrEmptyChain) {
		t.Fatalf("pass over an empty chain returned %v, want core.ErrEmptyChain", err)
	}
	if _, err := BottleneckOf(s, "orphan.example"); !errors.Is(err, core.ErrEmptyChain) {
		t.Fatalf("BottleneckOf an empty chain returned %v, want core.ErrEmptyChain", err)
	}

	b = core.NewBuilder(0)
	b.ObserveZone("com", []string{"a.ns.com"})
	b.ObserveChain("a.ns.com", []string{"com"})
	b.Complete("www.com", []string{"com"})
	b.Complete("orphan.example", nil)
	s = crawler.FromGraph(b.Finish())
	stats, err := Bottlenecks(context.Background(), s, s.Names, 2)
	if err != nil || stats.Names != 1 {
		t.Fatalf("pass over one good and one empty chain returned (%+v, %v), want one name analyzed", stats, err)
	}
}
