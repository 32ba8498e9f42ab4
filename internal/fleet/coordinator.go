package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/atomicio"
	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/view"
	"dnstrust/internal/vulndb"
)

// ShardStatus is one shard's health as observed at a commit.
type ShardStatus = view.ShardStatus

// Shard names one member of the fleet and the source its epochs are
// fetched from.
type Shard struct {
	Name   string
	Source Source
}

// Config tunes the Coordinator. The zero value is usable.
type Config struct {
	// Quorum is the minimum number of shards that must answer a commit
	// round (fresh data or a confirmed "unchanged") for the round to
	// commit; shards below quorum fail the round and the previous view
	// stands. 0 means a majority: len(shards)/2 + 1.
	Quorum int
	// Timeout bounds one commit round end to end: a shard that never
	// responds costs at most this long before the round proceeds
	// without it. 0 means 30s.
	Timeout time.Duration
	// Attempts is the per-shard fetch attempt budget per round (0 = 3);
	// Backoff is the first retry delay, doubling per attempt (0 = 200ms).
	Attempts int
	Backoff  time.Duration
	// Retain bounds the committed-generation timeline (0 = 8). Older
	// views fall off and their change journals are pruned.
	Retain int
	// SnapshotFile, when set, persists the merged snapshot there (via
	// atomic rename) after every commit that produced a new generation.
	SnapshotFile string
	// Logf, when set, receives one line per commit round.
	Logf func(format string, args ...any)
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 30 * time.Second
	}
	return c.Timeout
}

func (c Config) attempts() int {
	if c.Attempts <= 0 {
		return 3
	}
	return c.Attempts
}

func (c Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 200 * time.Millisecond
	}
	return c.Backoff
}

func (c Config) retain() int {
	if c.Retain <= 0 {
		return 8
	}
	return c.Retain
}

func (c Config) quorum(n int) int {
	if c.Quorum <= 0 {
		return n/2 + 1
	}
	return c.Quorum
}

// remapTable translates one shard's intern space into the union's:
// remap.hosts[shardHostID] is the union host id, and likewise for
// zones and chains. Shard intern tables are append-only across a
// monitor session, so the tables only ever extend at the tail — an
// unchanged prefix is reused verbatim commit after commit, which is
// what makes re-merging an N-shard fleet incremental.
type remapTable struct {
	hosts  []int32
	zones  []int32
	chains []int32
}

// shardState is the coordinator's per-shard bookkeeping. It is only
// mutated inside a commit round (serialized by commitSem), never by
// the fetch goroutines, which work on copied values.
type shardState struct {
	name  string
	src   Source
	gen   int64 // last applied shard generation, -1 before the first
	remap remapTable

	stale    bool
	lastErr  string
	fetches  int64
	failures int64
}

// Coordinator merges N shard monitors into one logical survey. Each
// Commit round pulls every shard's current epoch concurrently (an
// unchanged shard answers with a cheap conditional fetch), translates
// new shard ids into the unioned intern space through per-shard remap
// tables, and commits the merged graph as a generation-stamped
// FleetView. Shards share nothing: each one crawls its own name
// partition against its own store, and only snapshot bytes cross the
// wire.
type Coordinator struct {
	cfg    Config
	shards []*shardState // sorted by name; stable for the lifetime

	// commitSem serializes commit rounds (and snapshot writes, which
	// need a quiescent builder). It is a capacity-1 channel rather than
	// a mutex because a round legitimately spans shard I/O — fetches,
	// retries, the merged-snapshot save — and blocking operations must
	// never run under a mutex.
	commitSem chan struct{}

	// mu is the merge lock: held only for the in-memory merge and view
	// publication, never across I/O or channel operations.
	mu     sync.Mutex
	b      *core.Builder
	banner map[string]string
	vulns  map[string][]vulndb.Vuln
	db     *vulndb.DB
	memo   *analysis.ChainMemo
	gen    int64

	// tl publishes the committed views (lock-free current pointer plus
	// the retained ring), exactly as a single Monitor's does.
	tl *view.Timeline

	stMu   sync.Mutex
	status []ShardStatus
}

// New builds a Coordinator over the given shards. Shard names must be
// unique and non-empty; order does not matter (merges apply in sorted
// name order, so two coordinators over the same shard set converge on
// byte-identical merged snapshots).
func New(shards []Shard, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("fleet: no shards configured")
	}
	c := &Coordinator{
		cfg:       cfg,
		commitSem: make(chan struct{}, 1),
		b:         core.NewBuilder(0),
		banner:    make(map[string]string),
		vulns:     make(map[string][]vulndb.Vuln),
		db:        vulndb.Default(),
		memo:      analysis.NewChainMemo(),
		tl:        view.NewTimeline(cfg.retain()),
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.Name == "" {
			return nil, errors.New("fleet: shard with empty name")
		}
		if s.Source == nil {
			return nil, fmt.Errorf("fleet: shard %s has no source", s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %s", s.Name)
		}
		seen[s.Name] = true
		c.shards = append(c.shards, &shardState{name: s.Name, src: s.Source, gen: -1})
	}
	sort.Slice(c.shards, func(i, j int) bool { return c.shards[i].name < c.shards[j].name })
	c.status = c.statusSnapshot()
	return c, nil
}

// ShardNames returns the fleet's shard names, sorted.
func (c *Coordinator) ShardNames() []string {
	out := make([]string, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.name
	}
	return out
}

// Current returns the latest committed view, or nil before the first
// successful Commit. It never blocks behind an in-flight commit.
func (c *Coordinator) Current() *view.View { return c.tl.Current() }

// Generation reports the latest committed fleet generation (0 before
// the first Commit).
func (c *Coordinator) Generation() int64 {
	if v := c.tl.Current(); v != nil {
		return v.Generation()
	}
	return 0
}

// Timeline returns the retained committed generations, oldest to
// newest. Retained views share the union store copy-on-write.
func (c *Coordinator) Timeline() []*view.View { return c.tl.Views() }

// Between computes the typed trust delta from fleet generation from to
// generation to; both must still be retained.
func (c *Coordinator) Between(ctx context.Context, from, to int64) (*delta.Delta, error) {
	return c.tl.Between(ctx, from, to)
}

// Status returns every shard's health as of the last commit round.
func (c *Coordinator) Status() []ShardStatus {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	return append([]ShardStatus(nil), c.status...)
}

func (c *Coordinator) statusSnapshot() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, s := range c.shards {
		out[i] = ShardStatus{
			Name:       s.name,
			Generation: s.gen,
			Stale:      s.stale,
			Err:        s.lastErr,
			Fetches:    s.fetches,
			Failures:   s.failures,
		}
	}
	return out
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// fetchResult is one shard's answer to a commit round.
type fetchResult struct {
	idx int
	ep  *Epoch // nil when the shard is unchanged
	err error
}

// Commit runs one fleet round: fetch every shard's current epoch
// concurrently, merge what changed, and publish a new FleetView. A
// shard that fails its fetch keeps its previous contribution and is
// marked stale in the view; if fewer than the quorum answer, nothing
// commits and the previous view stands. A round in which no shard
// changed (and the stale set did not move) returns the current view
// without minting a generation. Rounds are serialized; concurrent
// Commits queue.
func (c *Coordinator) Commit(ctx context.Context) (*view.View, error) {
	select {
	case c.commitSem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("fleet: commit: %w", ctx.Err())
	}
	defer func() { <-c.commitSem }()

	// Phase 1: fetch. One goroutine per shard, each sending exactly one
	// result into a buffered channel (so the send never blocks and the
	// goroutine always exits); the round deadline unblocks fetches to
	// shards that never respond.
	rctx, cancel := context.WithTimeout(ctx, c.cfg.timeout())
	defer cancel()
	attempts, backoff := c.cfg.attempts(), c.cfg.backoff()
	results := make(chan fetchResult, len(c.shards))
	for i, st := range c.shards {
		src, haveGen := st.src, st.gen
		go func(idx int) {
			ep, err := fetchWithRetry(rctx, src, haveGen, attempts, backoff)
			results <- fetchResult{idx: idx, ep: ep, err: err}
		}(i)
	}
	eps := make([]*Epoch, len(c.shards))
	fresh := 0
	for range c.shards {
		r := <-results
		st := c.shards[r.idx]
		st.fetches++
		if r.err == nil && r.ep != nil && r.ep.HasMeta && r.ep.Shard != st.name {
			// The source answered for a different shard: a misrouted URL
			// would silently double-count a partition, so treat it as a
			// fetch failure.
			r.err = fmt.Errorf("fleet: shard %s answered as %q", st.name, r.ep.Shard)
			r.ep = nil
		}
		if r.err != nil {
			st.failures++
			st.stale = true
			st.lastErr = r.err.Error()
			continue
		}
		st.stale = false
		st.lastErr = ""
		fresh++
		eps[r.idx] = r.ep
	}

	if q := c.cfg.quorum(len(c.shards)); fresh < q {
		c.publishStatus()
		c.logf("fleet: commit aborted: %d/%d shards answered, quorum is %d", fresh, len(c.shards), q)
		return nil, fmt.Errorf("fleet: quorum not met: %d of %d shards answered (need %d)", fresh, len(c.shards), q)
	}

	staleNames := make([]string, 0)
	for _, st := range c.shards {
		if st.stale {
			staleNames = append(staleNames, st.name)
		}
	}

	changedShards := 0
	for _, ep := range eps {
		if ep != nil {
			changedShards++
		}
	}
	if changedShards == 0 {
		if prev := c.tl.Current(); prev != nil && slices.Equal(prev.StaleShards(), staleNames) {
			c.publishStatus()
			return prev, nil
		}
	}

	// Phase 2: merge, under the merge lock — pure in-memory work only.
	c.mu.Lock()
	var rescored []string
	for i, st := range c.shards {
		if eps[i] == nil {
			continue
		}
		rescored = c.applyEpochLocked(st, eps[i], rescored)
		st.gen = eps[i].Generation
	}
	var prevSurvey *crawler.Survey
	var prevGraph *core.Graph
	if prev := c.tl.Current(); prev != nil {
		prevSurvey = prev.Survey()
		prevGraph = prevSurvey.Graph
	}
	g := c.b.FinishEpoch()
	late := c.b.TakeLateAttached()
	var rescoredIDs []int32
	for _, h := range rescored {
		if id, ok := g.HostID(h); ok {
			rescoredIDs = append(rescoredIDs, id)
		}
	}
	slices.Sort(rescoredIDs)
	c.gen++
	gen := c.gen
	sv := &crawler.Survey{
		Graph:  g,
		Names:  g.NamesFrom(prevGraph),
		Failed: maps.Clone(c.b.Failed()),
		Banner: maps.Clone(c.banner),
		Vulns:  maps.Clone(c.vulns),
		DB:     c.db,
		Stats: crawler.CrawlStats{
			Generation:        gen,
			LateAttachedHosts: late,
			RescoredHosts:     rescoredIDs,
		},
	}
	if prevSurvey != nil {
		c.memo.Advance(prevSurvey, sv)
	}
	changed := sv.Names
	if g.SharesStore(prevGraph) && prevGraph.Epoch() <= g.Epoch() && g.JournalComplete(prevGraph.Epoch()) {
		changed = g.NamesTouchedSince(prevGraph.Epoch())
	}
	fv := view.New(sv, c.memo, nil, view.Merge{
		Stale:   staleNames,
		Shards:  c.statusSnapshot(),
		Changed: changed,
	})
	if oldest := c.tl.Commit(fv); oldest != nil {
		c.b.PruneJournal(oldest.Survey().Graph.Epoch())
	}
	c.mu.Unlock()

	c.publishStatus()
	c.logf("fleet: committed generation %d: %d/%d shards changed, %d stale, %d names",
		gen, changedShards, len(c.shards), len(staleNames), len(sv.Names))

	// Phase 3: durability, outside the merge lock (the commit semaphore
	// keeps the builder quiescent while the sections stream out).
	if c.cfg.SnapshotFile != "" {
		if _, err := atomicio.WriteFile(c.cfg.SnapshotFile, c.writeSnapshotQuiesced); err != nil {
			return fv, fmt.Errorf("fleet: generation %d committed, snapshot save failed: %w", gen, err)
		}
	}
	return fv, nil
}

func (c *Coordinator) publishStatus() {
	st := c.statusSnapshot()
	c.stMu.Lock()
	c.status = st
	c.stMu.Unlock()
}

// applyEpochLocked merges one shard epoch into the union builder,
// extending the shard's remap tables from their current length — the
// already-translated prefix is reused untouched. It appends to rescored
// every host whose vulnerability the epoch's banners changed. Caller
// holds c.mu.
func (c *Coordinator) applyEpochLocked(st *shardState, ep *Epoch, rescored []string) []string {
	rm := &st.remap
	if ep.Generation < st.gen ||
		len(ep.Hosts) < len(rm.hosts) || len(ep.Zones) < len(rm.zones) || len(ep.Chains) < len(rm.chains) {
		// The shard restarted from scratch: its intern tables no longer
		// extend the ones we translated. Drop the remap and re-translate
		// fully — re-interning is idempotent against the union store.
		st.remap = remapTable{}
		rm = &st.remap
	}
	for i := len(rm.hosts); i < len(ep.Hosts); i++ {
		rm.hosts = append(rm.hosts, c.b.InternHost(ep.Hosts[i]))
	}
	for i := len(rm.zones); i < len(ep.Zones); i++ {
		ns := ep.ZoneNS[i]
		mapped := make([]int32, len(ns))
		for j, h := range ns {
			mapped[j] = rm.hosts[h]
		}
		rm.zones = append(rm.zones, c.b.InternZone(ep.Zones[i], mapped))
	}
	for i := len(rm.chains); i < len(ep.Chains); i++ {
		ids := ep.Chains[i]
		mapped := make([]int32, len(ids))
		for j, z := range ids {
			mapped[j] = rm.zones[z]
		}
		rm.chains = append(rm.chains, c.b.InternChain(mapped))
	}
	for h, cid := range ep.HostChain {
		switch cid {
		case chainNone:
		case chainEmpty:
			c.b.AttachHostChain(rm.hosts[h], c.b.InternChain(nil))
		default:
			c.b.AttachHostChain(rm.hosts[h], rm.chains[cid])
		}
	}
	for _, nc := range ep.Names {
		c.b.CompleteChain(nc.Name, rm.chains[nc.Chain])
	}
	for _, fe := range ep.Failed {
		c.b.Fail(fe.Name, errors.New(fe.Err))
	}
	// A host's first non-empty banner wins, as an engine probes each
	// host once: "" is a failed or hidden probe, and a shard that saw
	// nothing must not overwrite a shard that saw the version.
	for i, h := range ep.BannerHosts {
		if old, ok := c.banner[h]; ok && (old != "" || ep.Banners[i] == "") {
			continue
		}
		c.banner[h] = ep.Banners[i]
		was := len(c.vulns[h]) > 0
		vs := c.db.VulnsForBanner(ep.Banners[i])
		if len(vs) > 0 {
			c.vulns[h] = vs
		} else {
			delete(c.vulns, h)
		}
		if was != (len(vs) > 0) {
			rescored = append(rescored, h)
		}
	}
	return rescored
}

// WriteSnapshot serializes the merged union state — the builder's
// sections plus fleet metadata and the merged banner table — as one
// snapshot file on w. It waits for any in-flight commit round to
// finish; merges from the same shard snapshot set produce
// byte-identical output regardless of fetch timing.
func (c *Coordinator) WriteSnapshot(w io.Writer) error {
	c.commitSem <- struct{}{}
	defer func() { <-c.commitSem }()
	return c.writeSnapshotQuiesced(w)
}

// SaveSnapshot writes the merged snapshot to path via atomic rename.
func (c *Coordinator) SaveSnapshot(path string) error {
	c.commitSem <- struct{}{}
	defer func() { <-c.commitSem }()
	_, err := atomicio.WriteFile(path, c.writeSnapshotQuiesced)
	return err
}

// writeSnapshotQuiesced streams the merged snapshot; the caller must
// hold the commit semaphore so no round mutates the builder mid-write.
func (c *Coordinator) writeSnapshotQuiesced(w io.Writer) error {
	sw := snapshot.NewWriter(w)
	if err := c.b.WriteSections(sw); err != nil {
		return err
	}

	sw.Begin("fleet/meta")
	sw.I64(c.gen)
	sw.U64(uint64(len(c.shards)))
	gens := make([]int64, len(c.shards))
	names := make([]string, len(c.shards))
	for i, s := range c.shards {
		gens[i] = s.gen
		names[i] = s.name
	}
	sw.I64s(gens)
	if err := snapshot.WriteStringTable(sw, names); err != nil {
		return err
	}

	sw.Begin("fleet/banner")
	hosts := make([]string, 0, len(c.banner))
	for h := range c.banner {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	banners := make([]string, len(hosts))
	for i, h := range hosts {
		banners[i] = c.banner[h]
	}
	if err := snapshot.WriteStringTable(sw, hosts); err != nil {
		return err
	}
	if err := snapshot.WriteStringTable(sw, banners); err != nil {
		return err
	}

	return sw.Finish()
}
