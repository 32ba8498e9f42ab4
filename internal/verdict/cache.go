package verdict

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
)

// Config configures a Cache.
type Config struct {
	// Policy sets the verdict thresholds (zero value = defaults).
	Policy Policy
	// TTL bounds how long a cached verdict is served before it is
	// recomputed against the current survey. Zero means one minute.
	// Generation commits invalidate changed names immediately
	// regardless of TTL; the TTL only ages verdicts whose inputs the
	// journal never touched (e.g. a failed walk that might now succeed).
	TTL time.Duration
	// Add, when non-nil, is called from a background goroutine with
	// batches of never-seen names so the monitor can crawl them. Wire it
	// to Monitor.Add. Lookups never wait on it: they return a
	// provisional Flag verdict immediately.
	Add func(ctx context.Context, names ...string) error
	// MaxQueue bounds the background Add queue; when full, new names
	// are dropped (counted in Stats.Dropped) and retried on a later
	// miss. Zero means 1024.
	MaxQueue int
	// AddBatch caps how many queued names are handed to one Add call.
	// Zero means 256.
	AddBatch int
	// AddLinger is how long the add worker waits to fill a batch after
	// the first queued name. Zero means 25ms.
	AddLinger time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.TTL == 0 {
		cfg.TTL = time.Minute
	}
	// Clamp so exp = now + TTL cannot overflow the monotonic clock.
	if max := 100 * 365 * 24 * time.Hour; cfg.TTL > max {
		cfg.TTL = max
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 1024
	}
	if cfg.AddBatch == 0 {
		cfg.AddBatch = 256
	}
	if cfg.AddLinger == 0 {
		cfg.AddLinger = 25 * time.Millisecond
	}
	return cfg
}

const numShards = 64 // power of two; shardFor masks into it

// entry is one cached verdict with its expiry (nanoseconds on the
// cache's monotonic clock).
type entry struct {
	v   *Verdict
	exp int64
}

// flightCall deduplicates concurrent miss computations for one name.
type flightCall struct {
	done chan struct{}
	v    *Verdict
	g    uint64 // commit sequence the computation started under
}

// shard is one lock-striped slice of the cache: its verdicts and its
// in-flight miss computations, both under mu. A hit holds the read lock
// for one map read; a miss stores one entry and an eviction deletes its
// victims under the write lock, so a write costs what it changes, not
// what the shard holds.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	flight  map[string]*flightCall
}

// Cache memoizes per-name verdicts behind a zero-allocation hit path.
// It is the serving-side counterpart of the Monitor: reads spread over
// 64 read-locked shards while Advance — called at each generation
// commit — swaps in the new survey and evicts exactly the names whose
// chains the commit's change journal touched, never the whole cache.
//
// A shard is a plain map under a sync.RWMutex rather than a copy-on-write
// map behind an atomic pointer: copying the shard on every miss made a
// cold sweep cost the square of the names swept, and the read lock adds
// only tens of nanoseconds to a hit. It is not a sync.Map either: a miss
// must check seq and store its entry atomically with respect to the
// eviction pass, which one lock per shard gives and sync.Map's Store
// does not.
type Cache struct {
	cfg  Config
	memo *analysis.ChainMemo
	base time.Time

	// cur is the survey verdicts are computed against. seq counts
	// Advance calls; a miss records seq before loading cur and only
	// publishes its verdict if seq is unchanged after the computation,
	// so a verdict computed against a pre-commit survey can never be
	// inserted after that commit's eviction pass already ran. Ordering:
	// Advance stores cur before bumping seq, and misses read seq before
	// cur — observing the new seq therefore implies loading the new
	// survey.
	cur atomic.Pointer[crawler.Survey]
	seq atomic.Uint64

	shards [numShards]shard

	advMu sync.Mutex // serializes Advance

	// Background add queue for never-seen names.
	queue     chan string
	pendMu    sync.Mutex
	pending   map[string]struct{}
	stopc     chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	hits        atomic.Uint64
	misses      atomic.Uint64
	provisional atomic.Uint64
	evicted     atomic.Uint64
	flushes     atomic.Uint64
	staleSkips  atomic.Uint64
	enqueued    atomic.Uint64
	dropped     atomic.Uint64
	addBatches  atomic.Uint64
	addFailures atomic.Uint64
}

// NewCache builds a cache serving verdicts against the given survey
// (typically Monitor.At().Survey() at boot). Call Advance from the
// monitor's commit hook to keep it consistent, and Close to stop the
// background add worker.
func NewCache(initial *crawler.Survey, cfg Config) (*Cache, error) {
	if initial == nil {
		return nil, fmt.Errorf("verdict: initial survey is nil")
	}
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:     cfg,
		memo:    analysis.NewChainMemo(),
		base:    time.Now(),
		pending: make(map[string]struct{}),
		stopc:   make(chan struct{}),
	}
	c.cur.Store(initial)
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].flight = make(map[string]*flightCall)
	}
	if cfg.Add != nil {
		c.queue = make(chan string, cfg.MaxQueue)
		c.wg.Add(1)
		go c.runAdder()
	}
	return c, nil
}

// Close stops the background add worker. It does not wait for lookups.
func (c *Cache) Close() error {
	c.closeOnce.Do(func() {
		close(c.stopc)
		c.wg.Wait()
	})
	return nil
}

// now is the cache's monotonic clock in nanoseconds.
func (c *Cache) now() int64 { return int64(time.Since(c.base)) }

// shardIndex hashes a canonical name onto a shard (inlined FNV-1a so
// the hit path does not allocate).
func shardIndex(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h & (numShards - 1))
}

func (c *Cache) shardFor(name string) *shard { return &c.shards[shardIndex(name)] }

// Lookup returns the verdict for name, computing and caching it on a
// miss. The hit path is allocation-free: one hash, one map read under
// the shard's read lock, and an expiry check. Lookup never blocks on
// crawling — unknown names get a provisional Flag verdict and a queued
// crawl.
//
//lint:hotpath
func (c *Cache) Lookup(name string) *Verdict {
	name = dnsname.Canonical(name)
	sh := c.shardFor(name)
	sh.mu.RLock()
	e := sh.entries[name]
	sh.mu.RUnlock()
	if e != nil && e.exp > c.now() {
		c.hits.Add(1)
		return e.v
	}
	return c.miss(sh, name)
}

// miss computes the verdict for name with single-flight deduplication
// and publishes it unless a generation commit happened mid-computation.
func (c *Cache) miss(sh *shard, name string) *Verdict {
	c.misses.Add(1)
	for {
		sh.mu.Lock()
		// Recheck under the lock: another flight may have landed.
		if e := sh.entries[name]; e != nil && e.exp > c.now() {
			sh.mu.Unlock()
			return e.v
		}
		if fc, ok := sh.flight[name]; ok {
			sh.mu.Unlock()
			<-fc.done
			if fc.g == c.seq.Load() {
				return fc.v
			}
			// The flight computed against a survey that was replaced
			// while we waited; its verdict may predate an eviction we
			// must respect. Recompute.
			c.staleSkips.Add(1)
			continue
		}
		fc := &flightCall{done: make(chan struct{})}
		sh.flight[name] = fc
		sh.mu.Unlock()

		// seq before cur: seeing the post-commit seq implies cur is the
		// post-commit survey (Advance stores cur first).
		fc.g = c.seq.Load()
		sv := c.cur.Load()
		v := Evaluate(sv, c.memo, c.cfg.Policy, name)
		fc.v = v
		if v.Provisional {
			c.provisional.Add(1)
			c.enqueue(name)
		}

		sh.mu.Lock()
		delete(sh.flight, name)
		if fc.g == c.seq.Load() {
			sh.entries[name] = &entry{v: v, exp: c.now() + int64(c.cfg.TTL)}
		} else {
			// A commit ran while we computed: serve the verdict to this
			// caller but do not publish it past the eviction pass.
			c.staleSkips.Add(1)
		}
		sh.mu.Unlock()
		close(fc.done)
		return v
	}
}

// Advance swaps the cache onto a freshly committed survey and evicts the
// names the commit changed. When the new survey's change journal reaches
// back to the old one (core.Graph.JournalFrom; the normal monitor path),
// eviction is precise: only names whose chain mapping changed, or that
// sit on a chain whose membership or host set changed, are dropped.
// Otherwise — a different store entirely, or a pruned journal — the
// whole cache is flushed (counted in Stats.Flushes).
//
// Precise eviction earns its journal walk: under bench/'s serve_churn
// workload a flush at every commit held verdict.hit_ratio at 0.14, and
// precise eviction holds it at 0.99.
//
// Call it from the monitor's commit hook. Concurrent lookups are safe:
// a lookup that starts after Advance returns is guaranteed not to serve
// a verdict computed against the pre-commit survey for any evicted name.
func (c *Cache) Advance(next *crawler.Survey) {
	if next == nil {
		return
	}
	c.advMu.Lock()
	defer c.advMu.Unlock()
	prev := c.cur.Load()
	if next == prev {
		return
	}
	// The memo must be valid for next before any miss computes from it.
	c.memo.Advance(prev, next)
	c.cur.Store(next)
	c.seq.Add(1)

	og, ng := prev.Graph, next.Graph
	if ng != nil && ng.JournalFrom(og) {
		c.evict(c.changedNames(og.Epoch(), ng))
		return
	}
	c.flush()
}

// changedNames collects every name the journal marks as changed since
// epoch: names whose chain mapping moved plus every name riding a chain
// whose membership or host set changed.
func (c *Cache) changedNames(epoch int64, ng *core.Graph) []string {
	names := ng.NamesTouchedSince(epoch)
	seen := make(map[string]struct{}, len(names))
	for _, n := range names {
		seen[n] = struct{}{}
	}
	for _, cid := range ng.ChainsChangedSince(epoch) {
		for _, n := range ng.NamesOnChain(cid) {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				names = append(names, n)
			}
		}
	}
	return names
}

// evict drops the given names from their shards in place.
func (c *Cache) evict(names []string) {
	for _, n := range names {
		sh := c.shardFor(n)
		sh.mu.Lock()
		if _, ok := sh.entries[n]; ok {
			delete(sh.entries, n)
			c.evicted.Add(1)
		}
		sh.mu.Unlock()
	}
}

// flush drops every entry (survey store changed or journal incomplete).
func (c *Cache) flush() {
	c.flushes.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.evicted.Add(uint64(len(sh.entries)))
		clear(sh.entries)
		sh.mu.Unlock()
	}
}

// enqueue hands a never-seen name to the background add worker without
// blocking; duplicates already queued or in flight are suppressed.
func (c *Cache) enqueue(name string) {
	if c.queue == nil {
		return
	}
	c.pendMu.Lock()
	if _, ok := c.pending[name]; ok {
		c.pendMu.Unlock()
		return
	}
	select {
	case c.queue <- name:
		c.pending[name] = struct{}{}
		c.pendMu.Unlock()
		c.enqueued.Add(1)
	default:
		c.pendMu.Unlock()
		c.dropped.Add(1)
	}
}

// runAdder drains the queue in batches and hands them to cfg.Add.
func (c *Cache) runAdder() {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-c.stopc
		cancel()
	}()
	for {
		var first string
		select {
		case <-c.stopc:
			return
		case first = <-c.queue:
		}
		batch := []string{first}
		linger := time.NewTimer(c.cfg.AddLinger)
	gather:
		for len(batch) < c.cfg.AddBatch {
			select {
			case n := <-c.queue:
				batch = append(batch, n)
			case <-linger.C:
				break gather
			case <-c.stopc:
				linger.Stop()
				return
			}
		}
		linger.Stop()
		if err := c.cfg.Add(ctx, batch...); err != nil {
			c.addFailures.Add(1)
		} else {
			c.addBatches.Add(1)
			// The commit's change journal only covers names that walked;
			// a name whose crawl failed outright never appears in it, so
			// its provisional entry would outlive the commit until TTL.
			// Evict the whole batch: Add's commit hook has already run
			// (hooks fire inside Add), so the next lookup recomputes
			// against the committed survey and failed names turn into
			// definitive "unresolved" flags.
			c.evict(batch)
		}
		c.pendMu.Lock()
		for _, n := range batch {
			delete(c.pending, n)
		}
		c.pendMu.Unlock()
	}
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Size is the number of cached verdicts (including expired ones not
	// yet overwritten).
	Size int
	// Generation is the survey generation verdicts are computed against.
	Generation int64
	// Hits and Misses count Lookup outcomes on the fast path.
	Hits, Misses uint64
	// Provisional counts verdicts issued for never-seen names.
	Provisional uint64
	// Evicted counts entries dropped by Advance; Flushes counts the
	// full-cache drops (0 on the normal shared-store monitor path).
	Evicted, Flushes uint64
	// StaleSkips counts miss computations discarded because a commit
	// landed mid-computation.
	StaleSkips uint64
	// Enqueued, Dropped, AddBatches, AddFailures describe the
	// background crawl queue.
	Enqueued, Dropped, AddBatches, AddFailures uint64
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Generation:  c.cur.Load().Stats.Generation,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Provisional: c.provisional.Load(),
		Evicted:     c.evicted.Load(),
		Flushes:     c.flushes.Load(),
		StaleSkips:  c.staleSkips.Load(),
		Enqueued:    c.enqueued.Load(),
		Dropped:     c.dropped.Load(),
		AddBatches:  c.addBatches.Load(),
		AddFailures: c.addFailures.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Size += len(sh.entries)
		sh.mu.RUnlock()
	}
	return st
}

// Survey returns the survey verdicts are currently computed against.
func (c *Cache) Survey() *crawler.Survey { return c.cur.Load() }
