package dnstrust

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dnstrust/internal/verdict"
)

func openTestMonitor(t *testing.T, opts Options) *Monitor {
	t.Helper()
	m, err := Open(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// viewFingerprint serializes everything a View reports about a name set
// into one byte slice, so snapshot isolation can be asserted literally:
// byte-identical before and after a concurrent or subsequent Add.
func viewFingerprint(t *testing.T, v *View, names []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "gen=%d names=%d\n", v.Generation(), len(v.Names()))
	sum := v.Summary()
	fmt.Fprintf(&buf, "summary names=%d servers=%d vuln=%d affected=%d tcbmean=%.4f\n",
		sum.Names, sum.Servers, sum.VulnerableServers, sum.AffectedNames, sum.TCB.Mean())
	for _, n := range names {
		tcb, err := v.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		dot, err := v.DOT(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Bottleneck(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s tcb=%v cut=%d safe=%d dot=%d\n", n, tcb, res.Size, res.SafeInCut, len(dot))
	}
	return buf.Bytes()
}

// TestMonitorGenerationZero checks that a freshly opened session is
// queryable before any crawl: generation 0 is an empty, valid view.
func TestMonitorGenerationZero(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 100})
	v := m.At()
	if v.Generation() != 0 || m.Generation() != 0 {
		t.Fatalf("fresh monitor at generation %d", v.Generation())
	}
	if len(v.Names()) != 0 {
		t.Fatalf("empty session has %d names", len(v.Names()))
	}
	sum := v.Summary()
	if sum.Names != 0 || sum.Servers != 0 || sum.TCB.Mean() != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
	if _, err := v.TCB("www.nowhere.example"); err == nil {
		t.Error("TCB on an empty view must error")
	}
	stats, err := v.Bottlenecks(context.Background())
	if err != nil || stats.Names != 0 {
		t.Errorf("empty bottlenecks = %+v, %v", stats, err)
	}
}

// TestMonitorAddMemoizedZeroQueries is the acceptance gate for query
// reuse: adding names to an open session issues zero transport queries
// for already-walked zones, asserted via the engine's query counter.
func TestMonitorAddMemoizedZeroQueries(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 300})
	ctx := context.Background()
	corpus := m.World().Corpus

	if _, err := m.Add(ctx, corpus...); err != nil {
		t.Fatal(err)
	}
	before := m.Queries()
	if before == 0 {
		t.Fatal("initial crawl issued no transport queries")
	}

	// Re-adding the whole corpus: every zone, chain, and address is
	// memoized — the transport must not be touched.
	v, err := m.Add(ctx, corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Queries() - before; got != 0 {
		t.Errorf("re-adding %d memoized names issued %d transport queries, want 0", len(corpus), got)
	}
	if v.Generation() != 2 {
		t.Errorf("generation = %d, want 2", v.Generation())
	}
	if len(v.Names()) != len(corpus) {
		t.Errorf("re-add changed the corpus: %d names", len(v.Names()))
	}
}

// TestMonitorViewSnapshotIsolation is the acceptance gate for snapshot
// isolation: a View taken before an Add returns byte-identical results
// after it.
func TestMonitorViewSnapshotIsolation(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 400})
	ctx := context.Background()
	corpus := m.World().Corpus
	half := len(corpus) / 2

	v1, err := m.Add(ctx, corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}
	probe := v1.Names()[:min(25, len(v1.Names()))]
	before := viewFingerprint(t, v1, probe)

	if _, err := m.Add(ctx, corpus[half:]...); err != nil {
		t.Fatal(err)
	}

	after := viewFingerprint(t, v1, probe)
	if !bytes.Equal(before, after) {
		t.Fatalf("view changed across an Add:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// And the new view actually moved.
	v2 := m.At()
	if v2.Generation() != 2 || len(v2.Names()) != len(corpus) {
		t.Errorf("At() = gen %d with %d names, want gen 2 with %d", v2.Generation(), len(v2.Names()), len(corpus))
	}
}

// TestMonitorConcurrentReadsDuringCrawl exercises the View contract
// under -race: many goroutines run the full read API — including lazy
// Snapshot reconstruction and memoized analyses — against a committed
// view while the next Add crawls.
func TestMonitorConcurrentReadsDuringCrawl(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 13, Names: 500, Workers: 4})
	ctx := context.Background()
	corpus := m.World().Corpus
	half := len(corpus) / 2

	v1, err := m.Add(ctx, corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}
	probe := v1.Names()[:min(10, len(v1.Names()))]
	want := viewFingerprint(t, v1, probe)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
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
				if got := viewFingerprint(t, v1, probe); !bytes.Equal(got, want) {
					errs <- errors.New("view fingerprint changed during a concurrent Add")
					return
				}
				if _, err := m.At().TCB(m.At().Names()[0]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	_, addErr := m.Add(ctx, corpus[half:]...)
	close(stop)
	wg.Wait()
	if addErr != nil {
		t.Fatal(addErr)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestMonitorViewAnalysesCached verifies the per-view once-caching and
// the cross-generation chain memo: repeated Summary and Bottlenecks on
// one view return the identical cached object, and a view committed by
// a no-new-zones Add reuses the memoized per-chain results.
func TestMonitorViewAnalysesCached(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 300})
	ctx := context.Background()
	v1, err := m.Add(ctx, m.World().Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Summary() != v1.Summary() {
		t.Error("Summary must be computed once per view")
	}
	b1, err := v1.Bottlenecks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b2, _ := v1.Bottlenecks(ctx); b2 != b1 {
		t.Error("Bottlenecks must be computed once per view")
	}

	// A second generation over the same chains: results must agree with
	// the first (served from the chain memo, not recomputed wrongly).
	v2, err := m.Add(ctx, m.World().Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := v2.Bottlenecks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Names != b1.Names || b2.FullyVulnerable != b1.FullyVulnerable || b2.OneSafe != b1.OneSafe {
		t.Errorf("memo-served bottlenecks differ across identical generations: %+v vs %+v", b2, b1)
	}
	if !reflect.DeepEqual(v2.Summary().TCB, v1.Summary().TCB) {
		t.Error("memo-served summary differs across identical generations")
	}
}

// cancelOnWriter cancels a context the first time the marker appears in
// the stream written through it — a deterministic way to cancel a
// RunAll mid-run at a chosen experiment boundary.
type cancelOnWriter struct {
	marker []byte
	cancel context.CancelFunc
	buf    bytes.Buffer
}

func (w *cancelOnWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if bytes.Contains(w.buf.Bytes(), w.marker) {
		w.cancel()
	}
	return len(p), nil
}

// TestRunAllHonorsCancellation is the satellite contract: RunAll stops
// between experiments on a cancelled context, returning the rows of the
// experiments already finished and an error wrapping context.Canceled.
func TestRunAllHonorsCancellation(t *testing.T) {
	v := sharedStudy(t).At()

	// Cancelled before the first experiment: wrapped cancellation, no rows.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	rows, err := RunAll(pre, v, &bytes.Buffer{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll on a dead context = %v, want wrapped context.Canceled", err)
	}
	if len(rows) != 0 {
		t.Errorf("dead-context RunAll returned %d rows", len(rows))
	}

	// Cancelled mid-run: the writer cancels when Figure 2's header goes
	// out. Figure 2 itself ignores ctx and completes, so RunAll trips on
	// the boundary check before Figure 3 and must return Figures 1-2's
	// rows with the wrapped cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnWriter{marker: []byte("===== Figure 2"), cancel: cancel}
	rows, err = RunAll(ctx, v, w)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run RunAll = %v, want wrapped context.Canceled", err)
	}
	if len(rows) == 0 {
		t.Fatal("mid-run cancellation must return the partial comparisons")
	}
	for _, c := range rows {
		if c.Experiment != "Figure 1" && c.Experiment != "Figure 2" {
			t.Errorf("experiment %q ran after cancellation", c.Experiment)
		}
	}
}

func TestMonitorOnCommit(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 11, Names: 120, Workers: 4})
	ctx := context.Background()

	var mu sync.Mutex
	var gens []int64
	m.OnCommit(func(v *View) {
		mu.Lock()
		gens = append(gens, v.Generation())
		mu.Unlock()
	})
	// Hooks see the commit before Add returns, in order, once each.
	corpus := m.World().Corpus
	half := len(corpus) / 2
	v1, err := m.Add(ctx, corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Add(ctx, corpus[half:]...)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]int64(nil), gens...)
	mu.Unlock()
	if len(got) != 2 || got[0] != v1.Generation() || got[1] != v2.Generation() {
		t.Fatalf("hook saw generations %v, want [%d %d]", got, v1.Generation(), v2.Generation())
	}

	// An empty Add commits nothing and fires no hook.
	if _, err := m.Add(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(gens)
	mu.Unlock()
	if n != 2 {
		t.Errorf("empty Add fired a hook (%d commits recorded)", n)
	}
}

// TestMonitorHooksRunBeforePrune pins the commit order hooks depend on:
// with nothing retained (Retain unset, how dnstrustd runs) the journal of
// the epoch just committed is pruned as part of the commit, and a verdict
// cache wired to OnCommit must read it first — otherwise every commit
// flushes the whole cache instead of evicting the names it changed.
func TestMonitorHooksRunBeforePrune(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 11, Names: 120, Workers: 4})
	ctx := context.Background()
	corpus := m.World().Corpus
	half := len(corpus) / 2
	v1, err := m.Add(ctx, corpus[:half]...)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := verdict.NewCache(v1.Survey(), verdict.Config{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	m.OnCommit(func(v *View) { cache.Advance(v.Survey()) })
	// A second hook records what the commit's journal says changed, while
	// the journal is still there to be read.
	changed := map[string]bool{}
	m.OnCommit(func(v *View) {
		g, since := v.Survey().Graph, v1.Survey().Graph.Epoch()
		if !g.JournalComplete(since) {
			t.Errorf("journal of generation %d already pruned when its hooks ran", v.Generation())
		}
		for _, n := range g.NamesTouchedSince(since) {
			changed[n] = true
		}
		for _, cid := range g.ChainsChangedSince(since) {
			for _, n := range g.NamesOnChain(cid) {
				changed[n] = true
			}
		}
	})
	cached := v1.Names()
	for _, n := range cached {
		cache.Lookup(n)
	}

	if _, err := m.Add(ctx, corpus[half:]...); err != nil {
		t.Fatal(err)
	}
	if f := cache.Stats().Flushes; f != 0 {
		t.Fatalf("commit of new names flushed the verdict cache %d times, want 0", f)
	}
	kept := 0
	for _, n := range cached {
		before := cache.Stats().Hits
		cache.Lookup(n)
		hit := cache.Stats().Hits > before
		if hit == changed[n] {
			t.Errorf("%s: still cached = %v, journalled as changed = %v", n, hit, changed[n])
		}
		if hit {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no verdict survived the commit: eviction was not precise")
	}
}
