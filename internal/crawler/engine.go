package crawler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnstrust/internal/core"
	"dnstrust/internal/resolver"
)

// Engine is the resident survey service: one walker, one streaming graph
// builder, and a sequence of incremental crawls feeding them. Where Run
// crawls a fixed corpus once and tears everything down, an Engine stays
// open — Add extends the survey with more names, reusing every zone cut,
// delegation chain, and memoized query discovered by earlier batches, so
// adding names whose dependency structure is already walked crosses the
// transport zero times.
//
// Each successful Add commits a new generation: an immutable Survey
// built from an epoch snapshot of the graph (core.Builder.FinishEpoch),
// a copy of the failure table and a prefix of the engine's host
// fingerprint column (Fingerprints), which later Adds only extend. View
// returns the latest committed generation and never blocks; readers may
// keep analyzing an older generation while the next Add streams in —
// nothing a committed Survey references is ever mutated again.
//
// Add and Close serialize on an internal lock; View is lock-free. An
// Engine is therefore "single-writer, many-readers": one crawl advances
// at a time while any number of goroutines query committed generations.
type Engine struct {
	w     *resolver.Walker
	probe func(ctx context.Context, host string) (string, error)
	cfg   Config

	// mu serializes Add and Close and guards the mutable crawl state
	// below. The committed view is published through an atomic pointer
	// so readers never touch the lock.
	mu sync.Mutex
	b  *core.Builder
	// fp fingerprints a prefix of the graph's host table; hosts below
	// its length are never probed again.
	fp     *Fingerprints
	closed bool
	// pendingLate carries late-attached host ids drained from the
	// builder by an Add that then failed before committing (e.g. probe
	// cancellation): they must surface in the NEXT committed
	// generation's stats or the analysis memo would never flush the
	// results they changed.
	pendingLate []int32

	// disc is the walker's discovery FIFO. The observer callbacks append
	// to it from any goroutine, during an Add or between Adds (a proxy
	// resolving through the walker), under discMu; Add's assembler
	// drains it into the builder. discSpare is the drained buffer kept
	// for reuse (guarded by mu: only the assembler touches it).
	discMu    sync.Mutex
	disc      []discovery
	discSpare []discovery

	gen  atomic.Int64
	view atomic.Pointer[Survey]
}

// NewEngine opens a resident survey engine over r. probe fetches
// version.bind banners for newly discovered hosts (nil skips
// fingerprinting). The engine starts at generation 0 with an empty
// committed view.
func NewEngine(r *resolver.Resolver, probe func(ctx context.Context, host string) (string, error), cfg Config) *Engine {
	e := &Engine{
		w:     resolver.NewWalker(r),
		probe: probe,
		cfg:   cfg,
		b:     core.NewBuilder(0),
		fp:    NewFingerprints(),
	}
	e.w.SetObserver(e)
	e.view.Store(e.fp.Publish(e.b.FinishEpoch(), nil, e.b.Failed(), CrawlStats{}, e.w))
	return e
}

// ZoneDiscovered appends a walker discovery to the engine's FIFO
// (resolver.WalkObserver).
func (e *Engine) ZoneDiscovered(apex, _ string, nsHosts []string) {
	e.discMu.Lock()
	e.disc = append(e.disc, discovery{key: apex, zone: true, hosts: nsHosts})
	e.discMu.Unlock()
}

// ChainResolved appends a walker discovery to the engine's FIFO
// (resolver.WalkObserver).
func (e *Engine) ChainResolved(key string, chain []string) {
	e.discMu.Lock()
	e.disc = append(e.disc, discovery{key: key, chain: chain})
	e.discMu.Unlock()
}

// absorbDiscoveries drains the discovery FIFO into the builder, in the
// order the walker made the discoveries. Call it with e.mu held.
func (e *Engine) absorbDiscoveries() {
	e.discMu.Lock()
	ds := e.disc
	e.disc = e.discSpare[:0]
	e.discMu.Unlock()
	for _, d := range ds {
		if d.zone {
			e.b.ObserveZone(d.key, d.hosts)
		} else {
			e.b.ObserveChain(d.key, d.chain)
		}
	}
	clear(ds)
	e.discSpare = ds
}

// Generation reports the latest committed generation (0 before the
// first successful Add).
func (e *Engine) Generation() int64 { return e.gen.Load() }

// Queries reports the cumulative transport queries the engine's walker
// has issued across all Adds — the counter behind the "adding memoized
// names is transport-free" guarantee.
func (e *Engine) Queries() int { return e.w.Queries() }

// View returns the latest committed Survey. It never blocks: during an
// in-flight Add it returns the previous generation, whose contents are
// immutable. Generations are stamped in Stats.Generation.
func (e *Engine) View() *Survey { return e.view.Load() }

// Add crawls names into the resident survey and commits a new
// generation. Names whose dependency structure was fully discovered by
// earlier batches are absorbed without any transport traffic (the
// walker's discovery caches answer everything); genuinely new zones are
// walked and streamed into the shared graph builder exactly like a
// first crawl. Re-adding an already-surveyed name is a no-op beyond the
// cache lookups.
//
// On error (cancellation, worker failure, probe failure) no generation
// is committed and the previous view stays valid; the walker keeps
// everything it learned, so a retry resumes where the batch stopped.
func (e *Engine) Add(ctx context.Context, names ...string) (*Survey, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("crawler: engine closed")
	}
	if len(names) == 0 {
		return e.view.Load(), nil
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Generation boundary: forget memoized failures so this batch
	// re-asks them — the only way a resident session can observe a
	// dependency that was lame and recovered (TCB drift). Successful
	// discoveries stay memoized, so re-adding a clean corpus still
	// crosses the transport zero times.
	retried := e.w.ForgetFailures()

	// Workers send only results; their discoveries reach the FIFO under
	// a walker shard lock before any walk can see them, so before the
	// walk that needed them returns. Draining the FIFO before applying
	// each result therefore gives the builder zones before the chains
	// that traverse them and chains before the results that use them.
	results := make(chan walkResult, workers*4)
	in := make(chan string, workers*2)
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for name := range in {
				chain, err := e.w.WalkName(ctx, name)
				if err != nil && ctx.Err() != nil {
					// The crawl is being torn down: record the abort for
					// this worker and stop draining.
					workerErrs[id] = fmt.Errorf("crawler: worker %d aborted: %w", id, err)
					return
				}
				results <- walkResult{name: name, chain: chain, err: err}
			}
		}(i)
	}
	go func() {
		defer close(in)
		for _, name := range names {
			select {
			case in <- name:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Incremental assembler: absorbs discoveries and results into the
	// shared graph's intern tables as they stream in.
	walkStart := time.Now()
	done := 0
	//lint:allow locksafety e.mu makes Add the single assembler; draining the bounded worker stream under it is the design (workers close results when done, so this terminates)
	for res := range results {
		e.absorbDiscoveries()
		if res.err != nil {
			e.b.Fail(res.name, res.err)
		} else {
			e.b.Complete(res.name, res.chain)
		}
		done++
		if e.cfg.Progress != nil && (done%1000 == 0 || done == len(names)) {
			e.cfg.Progress(done, len(names))
		}
	}
	e.absorbDiscoveries()
	walkTime := time.Since(walkStart)

	if err := ctx.Err(); err != nil {
		return nil, errors.Join(append([]error{err}, workerErrs...)...)
	}
	if err := errors.Join(workerErrs...); err != nil {
		return nil, err
	}

	// Commit: finalize the epoch, fingerprint hosts discovered by this
	// batch, and publish the new generation. Late-attached ids drained
	// here are folded into pendingLate first, so an abort below (probe
	// cancellation) cannot lose them — the next committed generation
	// reports them and the analysis memo flushes correctly.
	buildStart := time.Now()
	g := e.b.FinishEpoch()
	e.pendingLate = mergeSorted(e.pendingLate, e.b.TakeLateAttached())
	buildTime := time.Since(buildStart)

	// The probed tail joins the column only once every probe answered:
	// a cancelled probe leaves it as it was, and the next Add probes the
	// same hosts again.
	hosts := g.Hosts()
	if probed := len(e.fp.banners); e.probe != nil && !e.cfg.SkipVersionProbe && probed < len(hosts) {
		banners, err := probeHosts(ctx, e.probe, hosts[probed:], workers)
		if err != nil {
			return nil, err
		}
		for i, b := range banners {
			e.fp.Set(int32(probed+i), b)
		}
	}
	e.fp.grow(len(hosts))
	late := e.pendingLate
	e.pendingLate = nil

	// The sorted name list is the previous generation's merged with this
	// batch's journal, never a re-sort of the corpus; a batch that touched
	// no name mappings (pure re-adds) shares the previous slice outright —
	// with Monitor retention, unchanged generations cost array headers.
	s := e.fp.Publish(g, e.view.Load().Graph, e.b.Failed(), CrawlStats{
		Workers:           workers,
		Walker:            e.w.Stats(),
		WalkTime:          walkTime,
		BuildTime:         buildTime,
		Generation:        e.gen.Add(1),
		LateAttachedHosts: late,
		FailuresRetried:   retried,
	}, e.w)
	e.view.Store(s)
	return s, nil
}

// PruneJournal discards the graph store's per-epoch change journals at
// and below the given epoch — call it as old generations fall off a
// bounded retention window, so a long-lived engine's history stays
// bounded. Diffs from generations older than the prune point fall back
// to the by-name path.
func (e *Engine) PruneJournal(epoch int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.b.PruneJournal(epoch)
	}
}

// Close releases the walker's query memo (the fact kept for every
// answered question; see resolver.Walker.ReleaseQueryMemo), closes the
// engine-owned transport chain (when Config.Source is set), and rejects
// further Adds.
// Committed views remain fully readable — Close only ends the engine's
// write side. It returns the source-close failure, if any.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.w.ReleaseQueryMemo()
	if e.cfg.Source != nil {
		return e.cfg.Source.Close()
	}
	return nil
}

// mergeSorted merges two sorted slices, deduplicating.
func mergeSorted[T cmp.Ordered](a, b []T) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v T
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			v = a[i]
			i++
		case i >= len(a) || b[j] < a[i]:
			v = b[j]
			j++
		default: // equal
			v = a[i]
			i++
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// probeHosts fetches the banner of every host over a worker pool,
// aligned with hosts; an unreachable host reads "" (optimistically
// safe).
func probeHosts(ctx context.Context, probe func(ctx context.Context, host string) (string, error), hosts []string, workers int) ([]string, error) {
	banners := make([]string, len(hosts))
	in := make(chan int, workers*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				if b, err := probe(ctx, hosts[i]); err == nil {
					banners[i] = b
				}
			}
		}()
	}
feed:
	for i := range hosts {
		select {
		case in <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(in)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return banners, nil
}
