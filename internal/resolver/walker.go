package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
)

// ZoneInfo is what the walker learns about one zone from the delegation
// chain: its apex, its parent zone, and the nameserver hosts the parent
// referral (or the zone's own apex NS set) lists — the paper's "physical
// delegation chain".
type ZoneInfo struct {
	// Apex is the canonical zone apex ("" for the root).
	Apex string
	// Parent is the apex of the delegating zone.
	Parent string
	// NSHosts are the zone's nameserver host names, sorted.
	NSHosts []string

	// closed is set once every NS host in the zone's transitive closure
	// has a cached chain; see walkHosts.
	closed atomic.Bool
}

// Stats summarizes a walker's work: how much crossed the transport and
// how much was absorbed by the memo and single-flight layers.
type Stats struct {
	// Queries is the number of transport queries issued.
	Queries int64
	// MemoHits counts queries answered from the query memo (including
	// waits on another worker's in-flight query) without touching the
	// transport.
	MemoHits int64
	// SharedWalks counts chain/address walks that attached to another
	// worker's in-flight walk instead of duplicating it.
	SharedWalks int64
	// InlineWalks counts walks computed inline because waiting on the
	// in-flight owner would have deadlocked (mutual glue-less
	// dependencies); these are correctness fallbacks, not duplicated
	// transport work — queries stay deduplicated by the memo.
	InlineWalks int64
}

// WalkObserver receives walker discovery events as they stream in, so a
// consumer (the crawl's graph assembler) can absorb the dependency
// structure incrementally; it is the only way discoveries leave the
// walker. Callbacks fire exactly once per zone/chain, from whichever
// goroutine made the discovery — a crawl's walk, or a Cut descending for
// a resolution between crawls — and crucially *before* the discovery
// becomes visible to any other goroutine: an implementation that appends
// events to one FIFO therefore holds every zone before any chain that
// traverses it, and every chain before the return of any walk that
// depends on it.
//
// Callbacks run while a cache shard lock is held, at any time, not only
// during a crawl; they must not call back into the Walker and must not
// block (appending under a short mutex is the intended shape). The
// slices passed are shared with the walker's caches and must not be
// modified.
type WalkObserver interface {
	// ZoneDiscovered reports a newly discovered zone cut.
	ZoneDiscovered(apex, parent string, nsHosts []string)
	// ChainResolved reports the first-resolved zone chain of a key: a
	// nameserver host, or a surveyed name (both flow through the chain
	// cache; consumers that care tell them apart by which keys later
	// appear as NS hosts).
	ChainResolved(key string, chain []string)
}

// Walker performs exhaustive dependency walks with global memoization:
// each zone cut is discovered once, each nameserver host's address chain
// is walked once, no matter how many surveyed names share them. It
// discovers zone cuts label by label with NS queries, so cuts hidden by
// shared parent/child servers (where no referral is ever emitted) are
// still found — the same methodology the survey's crawler used.
//
// A Walker is safe for concurrent use and built for it: discovery state
// is sharded by key so parallel walks contend only within a namespace
// slice, whole-zone/host walks deduplicate through per-key single-flight
// (see flightGroup), and every logical query is memoized so it crosses
// the transport exactly once regardless of worker count or schedule.
type Walker struct {
	r *Resolver

	shards  [numShards]cacheShard
	qmemo   [numShards]queryShard
	flights *flightGroup
	obs     WalkObserver

	// nextOwner allocates walk identities for deadlock detection.
	nextOwner atomic.Int64

	queries     atomic.Int64
	memoHits    atomic.Int64
	sharedWalks atomic.Int64
	inlineWalks atomic.Int64
}

// NewWalker creates a Walker over r. The root servers from r's config are
// pre-seeded as the root zone.
func NewWalker(r *Resolver) *Walker {
	w := &Walker{r: r, flights: newFlightGroup()}
	for i := range w.shards {
		w.shards[i].init()
	}
	for i := range w.qmemo {
		w.qmemo[i].facts = make(map[queryKey]queryFact)
		w.qmemo[i].pending = make(map[queryKey]*pendingQuery)
	}
	rootHosts := make([]string, 0, len(r.cfg.Roots))
	for _, s := range r.cfg.Roots {
		rootHosts = append(rootHosts, s.Host)
	}
	sort.Strings(rootHosts)
	rootShard := w.shardOf("")
	rootShard.zones[""] = &ZoneInfo{Apex: "", Parent: "", NSHosts: rootHosts}
	rootShard.servers[""] = append([]ServerAddr(nil), r.cfg.Roots...)
	return w
}

// SetObserver installs the discovery event sink. It must be called
// before the first walk and at most once; events for the pre-seeded root
// zone are not replayed (the root is excluded from the dependency graph
// throughout the paper).
func (w *Walker) SetObserver(obs WalkObserver) { w.obs = obs }

// Queries reports how many transport queries the walker has issued.
func (w *Walker) Queries() int { return int(w.queries.Load()) }

// ForgetFailures evicts every memoized failure — errored query-memo
// entries and cached host walk errors — while keeping all successful
// discoveries. It is the longitudinal counterpart of the memo's
// exactly-once guarantee: within one batch a failed question is asked
// exactly once, but a resident session that monitors drift must re-ask
// it on the next batch, or a dependency that was lame yesterday (and
// answers today) stays invisible forever. The crawl engine calls it at
// each generation boundary; re-adding a fully successful corpus still
// crosses the transport zero times, because only failures are evicted.
// Questions in flight are left alone (their walk owns them; a failure
// they publish is evicted by the next call). It returns the number of
// evicted failures.
func (w *Walker) ForgetFailures() int {
	n := 0
	for i := range w.qmemo {
		qs := &w.qmemo[i]
		qs.mu.Lock()
		for _, key := range qs.errored {
			delete(qs.facts, key)
		}
		n += len(qs.errored)
		qs.errored = nil
		qs.mu.Unlock()
	}
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		n += len(s.hostErr)
		clear(s.hostErr)
		s.mu.Unlock()
	}
	return n
}

// ReleaseQueryMemo drops the (name, qtype) query memo: the fact kept
// for every answered question (its rcode and the NS hosts, glue or
// addresses the walker read from the reply, or its transport error) —
// O(total queries) of memory a finished crawl no longer needs. Call it
// only once all walks are done: later walks would re-query the
// transport. The discovery caches (zones, chains, addresses) are
// unaffected; the hosts and addresses they share with facts stay.
func (w *Walker) ReleaseQueryMemo() {
	for i := range w.qmemo {
		qs := &w.qmemo[i]
		qs.mu.Lock()
		qs.facts = make(map[queryKey]queryFact)
		qs.errored = nil
		qs.mu.Unlock()
	}
}

// Stats reports the walker's cumulative work counters.
func (w *Walker) Stats() Stats {
	return Stats{
		Queries:     w.queries.Load(),
		MemoHits:    w.memoHits.Load(),
		SharedWalks: w.sharedWalks.Load(),
		InlineWalks: w.inlineWalks.Load(),
	}
}

// --- sharded cache accessors ---

func (w *Walker) shardOf(key string) *cacheShard {
	return &w.shards[fnv1a(key)&(numShards-1)]
}

func (w *Walker) cachedChain(name string) ([]string, bool) {
	s := w.shardOf(name)
	s.mu.RLock()
	chain, ok := s.chains[name]
	s.mu.RUnlock()
	return chain, ok
}

func (w *Walker) storeChain(name string, chain []string) {
	s := w.shardOf(name)
	s.mu.Lock()
	if _, ok := s.chains[name]; !ok {
		s.chains[name] = chain
		// Emitted under the shard lock so the event is enqueued before
		// any other goroutine can read the chain from the cache — the
		// ordering guarantee WalkObserver documents.
		if w.obs != nil {
			w.obs.ChainResolved(name, chain)
		}
	}
	s.mu.Unlock()
}

func (w *Walker) zoneInfo(apex string) *ZoneInfo {
	s := w.shardOf(apex)
	s.mu.RLock()
	zi := s.zones[apex]
	s.mu.RUnlock()
	return zi
}

// recordZone stores a newly discovered cut (first discovery wins).
func (w *Walker) recordZone(parent, child string, hosts []string) {
	s := w.shardOf(child)
	s.mu.Lock()
	if _, known := s.zones[child]; !known {
		s.zones[child] = &ZoneInfo{Apex: child, Parent: parent, NSHosts: hosts}
		// Emitted under the shard lock: the zone event is enqueued
		// before any goroutine can observe the zone and walk its hosts.
		if w.obs != nil {
			w.obs.ZoneDiscovered(child, parent, hosts)
		}
	}
	s.mu.Unlock()
}

// cachedServers returns the cached usable servers of apex, if any.
func (w *Walker) cachedServers(apex string) []ServerAddr {
	s := w.shardOf(apex)
	s.mu.RLock()
	srv := s.servers[apex]
	s.mu.RUnlock()
	return srv
}

// storeServers caches the usable servers of apex (first store wins).
func (w *Walker) storeServers(apex string, servers []ServerAddr) {
	s := w.shardOf(apex)
	s.mu.Lock()
	if len(s.servers[apex]) == 0 && len(servers) > 0 {
		s.servers[apex] = servers
	}
	s.mu.Unlock()
}

func (w *Walker) cachedAddrs(host string) ([]netip.Addr, bool) {
	s := w.shardOf(host)
	s.mu.RLock()
	addrs, ok := s.addrs[host]
	s.mu.RUnlock()
	return addrs, ok
}

func (w *Walker) storeAddrs(host string, addrs []netip.Addr) {
	s := w.shardOf(host)
	s.mu.Lock()
	if _, ok := s.addrs[host]; !ok {
		s.addrs[host] = addrs
	}
	s.mu.Unlock()
}

func (w *Walker) cachedHostErr(host string) (error, bool) {
	s := w.shardOf(host)
	s.mu.RLock()
	err, ok := s.hostErr[host]
	s.mu.RUnlock()
	return err, ok
}

func (w *Walker) storeHostErr(host string, err error) {
	s := w.shardOf(host)
	s.mu.Lock()
	if _, ok := s.hostErr[host]; !ok {
		s.hostErr[host] = err
	}
	s.mu.Unlock()
}

// isCtxErr reports whether err is (or wraps) a context cancellation.
// Cancellation is never cached and never shared across walks: a result
// poisoned by one walk's deadline must not fail a concurrent walk whose
// context is still live.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// walkCtx carries one walk's identity (for cross-goroutine deadlock
// detection) and its recursion stack (for glue-less cycle detection).
// visiting is allocated by the first host address the walk resolves, so a
// walk answered from the caches allocates none.
type walkCtx struct {
	owner    int64
	visiting visitSet
}

func (w *Walker) newWalkCtx() *walkCtx {
	return &walkCtx{owner: w.nextOwner.Add(1)}
}

// WalkName discovers the complete dependency structure of name: its own
// delegation chain plus, transitively, the chains of every nameserver
// host involved. Discoveries stream to the WalkObserver and stay cached
// for later walks. It returns the name's own zone chain.
func (w *Walker) WalkName(ctx context.Context, name string) ([]string, error) {
	name = dnsname.Canonical(name)
	wc := w.newWalkCtx()
	chain, err := w.chainOf(ctx, name, wc)
	if err != nil {
		return nil, err
	}
	if err := w.walkHosts(ctx, chain, wc); err != nil {
		return chain, err
	}
	return chain, nil
}

// walkHosts walks the address chains of all NS hosts of the given zones,
// then of the zones those chains reveal, until closure.
//
// A zone is closed once every NS host in its transitive closure has a
// cached chain. Chains are first-write-wins and never evicted
// (ForgetFailures drops only failures), so a closed zone stays closed,
// and walkHosts skips it: a walk costs the zones no earlier walk closed,
// not the name's whole trust closure. A walk marks the zones it visited
// only when it ends with no host error and no context error; a walk that
// met a lame host marks nothing, so once ForgetFailures has evicted the
// failure the next walk re-asks the host. The mark is set after the
// walk's own observer events were sent and read before a later walk
// returns its result, so the WalkObserver ordering holds.
func (w *Walker) walkHosts(ctx context.Context, seedZones []string, wc *walkCtx) error {
	var pending []string
	for _, apex := range seedZones {
		if w.openZone(apex) != nil {
			pending = append(pending, apex)
		}
	}
	var seenZone, seenHost map[string]bool
	var visited []*ZoneInfo
	clean := true
	for len(pending) > 0 {
		apex := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if seenZone[apex] {
			continue
		}
		zi := w.openZone(apex)
		if zi == nil {
			continue
		}
		if seenZone == nil {
			seenZone, seenHost = map[string]bool{}, map[string]bool{}
		}
		seenZone[apex] = true
		visited = append(visited, zi)
		for _, host := range zi.NSHosts {
			if seenHost[host] {
				continue
			}
			seenHost[host] = true
			chain, err := w.chainOf(ctx, host, wc)
			if err != nil {
				if isCtxErr(err) {
					// The crawl is being torn down, not a lame host:
					// never record cancellation as a host failure.
					return err
				}
				// A lame nameserver host: record and continue. The zone is
				// still served by its other servers.
				w.storeHostErr(host, err)
				clean = false
				continue
			}
			pending = append(pending, chain...)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if clean {
		for _, zi := range visited {
			zi.closed.Store(true)
		}
	}
	return nil
}

// openZone returns the zone at apex if walkHosts still has to walk it:
// known, not the root, and not closed.
func (w *Walker) openZone(apex string) *ZoneInfo {
	if apex == "" {
		return nil
	}
	zi := w.zoneInfo(apex)
	if zi == nil || zi.closed.Load() {
		return nil
	}
	return zi
}

// visitSet tracks the hosts on the current recursion stack to detect
// glue-less resolution cycles; it is per-walk, not global, so concurrent
// walks do not interfere.
type visitSet map[string]bool

// chainOf returns the zone chain of name (TLD-first, root excluded),
// walking the delegation tree under per-name single-flight: concurrent
// walks of the same undiscovered name block on one in-flight computation.
func (w *Walker) chainOf(ctx context.Context, name string, wc *walkCtx) ([]string, error) {
	if chain, ok := w.cachedChain(name); ok {
		return chain, nil
	}
	v, shared, err := w.flights.do(ctx, wc.owner, "chain\x00"+name, func() (any, error) {
		return w.computeChain(ctx, name, wc)
	})
	if errors.Is(err, errWouldCycle) {
		w.inlineWalks.Add(1)
		return w.computeChain(ctx, name, wc)
	}
	if shared && err != nil && isCtxErr(err) && ctx.Err() == nil {
		// The flight's owner was cancelled, not us: recompute with our
		// live context (cancelled results are never cached).
		return w.computeChain(ctx, name, wc)
	}
	if err != nil {
		return nil, err
	}
	if shared {
		w.sharedWalks.Add(1)
	}
	return v.([]string), nil
}

func (w *Walker) computeChain(ctx context.Context, name string, wc *walkCtx) ([]string, error) {
	if chain, ok := w.cachedChain(name); ok {
		return chain, nil
	}
	az, _, err := w.descendToZone(ctx, name, wc)
	if err != nil {
		return nil, err
	}
	chain := w.reconstructChain(az)
	w.storeChain(name, chain)
	return chain, nil
}

// reconstructChain follows parent pointers from apex to the root and
// returns the chain TLD-first with the root excluded.
func (w *Walker) reconstructChain(apex string) []string {
	var rev []string
	for apex != "" {
		rev = append(rev, apex)
		zi := w.zoneInfo(apex)
		if zi == nil {
			break
		}
		apex = zi.Parent
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// descendToZone walks label by label from the deepest cached zone down to
// the zone authoritative for name, discovering every zone cut on the way.
// At each ancestor it issues an NS query:
//
//   - a referral reveals a classic cut (and carries glue);
//   - an authoritative NS answer reveals a cut hosted on servers shared
//     with the parent (no referral is ever seen for these);
//   - authoritative NODATA means the label is interior to the zone;
//   - NXDOMAIN means the name does not exist.
//
// It returns the authoritative zone's apex and usable servers.
func (w *Walker) descendToZone(ctx context.Context, name string, wc *walkCtx) (string, []ServerAddr, error) {
	apex, servers := w.deepestKnown(name)
	if len(servers) == 0 {
		return apex, nil, ErrNoServers
	}
	// Candidate cut points: ancestors of name strictly deeper than apex,
	// shallowest first.
	all := dnsname.Ancestors(name) // deepest first
	var candidates []string
	for i := len(all) - 1; i >= 0; i-- {
		anc := all[i]
		if anc != apex && dnsname.IsSubdomain(anc, apex) {
			candidates = append(candidates, anc)
		}
	}
	for _, anc := range candidates {
		if err := ctx.Err(); err != nil {
			return apex, nil, err
		}
		if !dnsname.IsSubdomain(anc, apex) {
			continue // a referral jumped past this candidate
		}
		f, err := w.queryAny(ctx, apex, servers, anc, dnswire.TypeNS)
		if err != nil {
			return apex, nil, fmt.Errorf("zone %q: %w", apex, err)
		}
		if f.rcode == dnswire.RCodeNXDomain {
			return apex, nil, ErrNXDomain
		}
		if f.rcode != dnswire.RCodeSuccess {
			return apex, nil, fmt.Errorf("resolver: %v for %q", f.rcode, anc)
		}
		switch f.kind {
		case nsAnswer:
			if len(f.hosts) == 0 {
				// An answer without NS data (e.g. a CNAME): terminal.
				return apex, servers, nil
			}
			next, err := w.enterZoneAnswer(ctx, apex, anc, f.hosts, servers, wc)
			if err != nil {
				return apex, nil, err
			}
			apex, servers = anc, next
		case nsNoCut:
			continue
		case nsReferral:
			child := f.more.child
			if child == apex || !dnsname.IsSubdomain(child, apex) || !dnsname.IsSubdomain(name, child) {
				return apex, nil, fmt.Errorf("resolver: bogus referral %q from zone %q", child, apex)
			}
			next, err := w.enterZoneReferral(ctx, apex, child, f.hosts, f.more.glue, wc)
			if err != nil {
				return apex, nil, err
			}
			apex, servers = child, next
		default:
			return apex, nil, fmt.Errorf("%w: empty response for %q from zone %q", ErrLameDelegation, anc, apex)
		}
	}
	return apex, servers, nil
}

// factOf takes out of a reply to a qtype question what the walker's
// descent reads from it; the memo keeps that fact and drops the reply.
func factOf(qtype dnswire.Type, resp *dnswire.Message) queryFact {
	f := queryFact{rcode: resp.RCode}
	if resp.RCode != dnswire.RCodeSuccess {
		return f
	}
	if qtype == dnswire.TypeA {
		var addrs []netip.Addr
		for _, rr := range resp.Answers {
			if a, ok := rr.Data.(dnswire.A); ok {
				addrs = append(addrs, a.Addr)
			}
		}
		if len(addrs) > 0 {
			f.more = &factMore{addrs: addrs}
		}
		return f
	}
	switch {
	case len(resp.Answers) > 0:
		f.kind = nsAnswer
		f.hosts = nsHosts(resp.Answers)
	case resp.Authoritative:
		f.kind = nsNoCut
	case len(resp.Authority) > 0:
		f.kind = nsReferral
		f.hosts = nsHosts(resp.Authority)
		f.more = &factMore{
			child: dnsname.Canonical(resp.Authority[0].Name),
			glue:  glueOf(f.hosts, resp.Additional),
		}
	}
	return f
}

// glueOf returns, for each distinct host of the sorted hosts, the first
// A or AAAA record the additional section gives for it.
func glueOf(hosts []string, additional []dnswire.RR) []ServerAddr {
	var glue []ServerAddr
	for i, host := range hosts {
		if i > 0 && host == hosts[i-1] {
			continue
		}
		for _, rr := range additional {
			var addr netip.Addr
			switch d := rr.Data.(type) {
			case dnswire.A:
				addr = d.Addr
			case dnswire.AAAA:
				addr = d.Addr
			default:
				continue
			}
			if dnsname.Canonical(rr.Name) == host {
				glue = append(glue, ServerAddr{Host: host, Addr: addr})
				break
			}
		}
	}
	return glue
}

func nsHosts(rrs []dnswire.RR) []string {
	var hosts []string
	for _, rr := range rrs {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			hosts = append(hosts, dnsname.Canonical(ns.Host))
		}
	}
	sort.Strings(hosts)
	return hosts
}

// deepestKnown returns the deepest cached zone that is an ancestor of
// name along with its usable servers. The root is always known. The
// servers are the cached slice itself, which callers only read.
func (w *Walker) deepestKnown(name string) (string, []ServerAddr) {
	apex := name
	for {
		if srv := w.cachedServers(apex); len(srv) > 0 || apex == "" {
			return apex, srv
		}
		apex, _ = dnsname.Parent(apex)
	}
}

// Cut returns the zone authoritative for name as the walker's descent
// finds it, and that zone's usable servers (a cached slice, read-only).
// A name the walker has walked answers from its cached chain in O(1).
// Any other name is descended label by label through the query memo,
// recording the zones and nameserver chains it meets (they reach the
// WalkObserver like any walk's) but not the name's own chain: only a
// walk makes a name part of the survey. If that descent fails, the
// answer is the deepest zone already known above the name, so a
// question asked there still answers as soon as its servers do. Only a
// context error fails Cut.
func (w *Walker) Cut(ctx context.Context, name string) (string, []ServerAddr, error) {
	name = dnsname.Canonical(name)
	if chain, ok := w.cachedChain(name); ok {
		apex := ""
		if len(chain) > 0 {
			apex = chain[len(chain)-1]
		}
		if srv := w.cachedServers(apex); len(srv) > 0 {
			return apex, srv, nil
		}
	}
	apex, servers, err := w.descendToZone(ctx, name, w.newWalkCtx())
	if err == nil {
		return apex, servers, nil
	}
	if isCtxErr(err) {
		return "", nil, err
	}
	apex, servers = w.deepestKnown(name)
	return apex, servers, nil
}

// enterZoneReferral enters a cut revealed by a referral: use its glue,
// resolve glue-less server addresses recursively.
func (w *Walker) enterZoneReferral(ctx context.Context, parent, child string, hosts []string, glue []ServerAddr, wc *walkCtx) ([]ServerAddr, error) {
	w.recordZone(parent, child, hosts)
	if cached := w.cachedServers(child); len(cached) > 0 {
		return cached, nil
	}
	if len(glue) > 0 && len(glue) == len(hosts) {
		// Every host has glue (glueOf keeps one per distinct host, in
		// host order), so the loop below would build a copy of it. Share
		// the memo's slice instead: one server list fewer per fully
		// glued zone, ~4.5 MB of survey_pipeline's heap_mb.
		w.storeServers(child, glue)
		return glue, nil
	}

	var out []ServerAddr
	var lastErr error
	for _, host := range hosts {
		if i := slices.IndexFunc(glue, func(g ServerAddr) bool { return g.Host == host }); i >= 0 {
			// Glue bootstraps this referral's server list only; it is not
			// authoritative, so it never enters the global address cache.
			// (That also keeps the transport query set schedule-invariant:
			// whether a host needs an authoritative A query can never
			// depend on which walk harvested glue first.)
			out = append(out, glue[i])
			continue
		}
		addrs, err := w.resolveHostAddr(ctx, host, wc)
		if err != nil {
			lastErr = err
			continue
		}
		if len(addrs) > 0 {
			out = append(out, ServerAddr{Host: host, Addr: addrs[0]})
		}
	}
	if len(out) == 0 {
		if lastErr == nil {
			lastErr = ErrNoServers
		}
		return nil, fmt.Errorf("%w: zone %q unreachable: %w", ErrLameDelegation, child, lastErr)
	}
	w.storeServers(child, out)
	return out, nil
}

// enterZoneAnswer enters a cut revealed by an authoritative NS answer
// (parent and child share servers, so no referral exists). In-bailiwick
// server addresses are fetched from the answering servers themselves —
// they are authoritative for the child; out-of-bailiwick hosts resolve
// through their own chains.
func (w *Walker) enterZoneAnswer(ctx context.Context, parent, child string, hosts []string, parentServers []ServerAddr, wc *walkCtx) ([]ServerAddr, error) {
	w.recordZone(parent, child, hosts)
	if cached := w.cachedServers(child); len(cached) > 0 {
		return cached, nil
	}
	var out []ServerAddr
	var lastErr error
	for _, host := range hosts {
		if cached, ok := w.cachedAddrs(host); ok && len(cached) > 0 {
			out = append(out, ServerAddr{Host: host, Addr: cached[0]})
			continue
		}
		if dnsname.IsSubdomain(host, child) {
			addrs, err := w.queryAddr(ctx, parent, parentServers, host)
			if err != nil {
				lastErr = err
				continue
			}
			w.storeAddrs(host, addrs)
			out = append(out, ServerAddr{Host: host, Addr: addrs[0]})
			continue
		}
		addrs, err := w.resolveHostAddr(ctx, host, wc)
		if err != nil {
			lastErr = err
			continue
		}
		if len(addrs) > 0 {
			out = append(out, ServerAddr{Host: host, Addr: addrs[0]})
		}
	}
	if len(out) == 0 {
		if lastErr == nil {
			lastErr = ErrNoServers
		}
		return nil, fmt.Errorf("%w: zone %q unreachable: %w", ErrLameDelegation, child, lastErr)
	}
	w.storeServers(child, out)
	return out, nil
}

// queryAddr fetches A records for host from the given servers, which act
// for the given zone apex (its rate etiquette applies).
func (w *Walker) queryAddr(ctx context.Context, zone string, servers []ServerAddr, host string) ([]netip.Addr, error) {
	f, err := w.queryAny(ctx, zone, servers, host, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	if f.rcode != dnswire.RCodeSuccess {
		return nil, fmt.Errorf("resolver: %v resolving %q", f.rcode, host)
	}
	if f.more == nil {
		return nil, fmt.Errorf("%w: host %q has no address", ErrLameDelegation, host)
	}
	return f.more.addrs, nil
}

// resolveHostAddr resolves a nameserver host's address through its own
// delegation chain under per-host single-flight, guarding against
// glue-less cycles.
func (w *Walker) resolveHostAddr(ctx context.Context, host string, wc *walkCtx) ([]netip.Addr, error) {
	if addrs, ok := w.cachedAddrs(host); ok {
		return addrs, nil
	}
	if err, ok := w.cachedHostErr(host); ok {
		return nil, err
	}
	if wc.visiting[host] {
		return nil, fmt.Errorf("%w: glue-less cycle through %q", ErrLameDelegation, host)
	}
	v, shared, err := w.flights.do(ctx, wc.owner, "addr\x00"+host, func() (any, error) {
		return w.computeHostAddr(ctx, host, wc)
	})
	if errors.Is(err, errWouldCycle) {
		w.inlineWalks.Add(1)
		return w.computeHostAddr(ctx, host, wc)
	}
	if shared && err != nil && isCtxErr(err) && ctx.Err() == nil {
		// The flight's owner was cancelled, not us: recompute with our
		// live context (cancelled results are never cached).
		return w.computeHostAddr(ctx, host, wc)
	}
	if err != nil {
		return nil, err
	}
	if shared {
		w.sharedWalks.Add(1)
	}
	return v.([]netip.Addr), nil
}

func (w *Walker) computeHostAddr(ctx context.Context, host string, wc *walkCtx) ([]netip.Addr, error) {
	if addrs, ok := w.cachedAddrs(host); ok {
		return addrs, nil
	}
	if wc.visiting == nil {
		wc.visiting = visitSet{}
	}
	wc.visiting[host] = true
	defer delete(wc.visiting, host)

	az, servers, err := w.descendToZone(ctx, host, wc)
	if err != nil {
		return nil, err
	}
	addrs, err := w.queryAddr(ctx, az, servers, host)
	if err != nil {
		return nil, err
	}
	chain := w.reconstructChain(az)
	w.storeAddrs(host, addrs)
	w.storeChain(host, chain)
	return addrs, nil
}

// queryAny answers (name, qtype) through the query memo: the first
// caller performs the real server round-robin and keeps the reply's
// fact, concurrent callers block on that in-flight attempt, and later
// callers are served the fact from memory. Every logical query
// therefore crosses the transport exactly once per walker, making total
// transport work independent of worker count. zone is the apex the
// servers act for; its rate etiquette paces the attempt. The returned
// error is the fact's.
func (w *Walker) queryAny(ctx context.Context, zone string, servers []ServerAddr, name string, qtype dnswire.Type) (queryFact, error) {
	key := queryKey{name: name, qtype: qtype}
	qs := &w.qmemo[fnv1a(name)&(numShards-1)]
	qs.mu.Lock()
	if f, ok := qs.facts[key]; ok {
		qs.mu.Unlock()
		w.memoHits.Add(1)
		return f, f.err()
	}
	if p, ok := qs.pending[key]; ok {
		qs.mu.Unlock()
		select {
		case <-p.done:
			if err := p.fact.err(); err != nil && isCtxErr(err) && ctx.Err() == nil {
				// The in-flight owner was cancelled, not us; nothing was
				// memoized, so retry fresh.
				return w.queryAny(ctx, zone, servers, name, qtype)
			}
			w.memoHits.Add(1)
			return p.fact, p.fact.err()
		case <-ctx.Done():
			return queryFact{}, ctx.Err()
		}
	}
	p := &pendingQuery{done: make(chan struct{})}
	qs.pending[key] = p
	qs.mu.Unlock()

	resp, sent, err := w.r.dispatch(ctx, zone, servers, name, qtype)
	w.queries.Add(int64(sent))
	if err != nil {
		p.fact.more = &factMore{err: err}
	} else {
		p.fact = factOf(qtype, resp)
	}
	qs.mu.Lock()
	delete(qs.pending, key)
	// Never memoize cancellation: a later walk with a live context must
	// be able to retry.
	if !isCtxErr(err) {
		qs.facts[key] = p.fact
		if err != nil {
			qs.errored = append(qs.errored, key)
		}
	}
	qs.mu.Unlock()
	close(p.done)
	return p.fact, err
}
