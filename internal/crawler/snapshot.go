package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"dnstrust/internal/core"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/vulndb"
)

// Engine snapshot sections, appended after the core builder's sections
// in the same container file:
//
//	crawler/meta    generation, probed-host prefix, pending late ids
//	crawler/banner  per-host version.bind banners (sorted host order)
//	shard/meta      optional fleet-shard label (see snapshot.ShardMeta)
//
// Vulnerability tables are not stored: they are a pure function of the
// banners and the vulnerability matrix (vulndb.DB.VulnsForBanner) and
// are recomputed on load, so a snapshot restored against an updated
// matrix is rescored automatically.

// WriteSnapshot serializes the engine's resident state — the graph
// builder's epoch store plus the engine's generation counter and banner
// table — as one snapshot file on w. It takes the engine lock, so it
// runs exactly between Adds; committed views are unaffected. A closed
// engine can still be snapshotted (Close only ends the write side).
func (e *Engine) WriteSnapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	sw := snapshot.NewWriter(w)
	if err := e.b.WriteSections(sw); err != nil {
		return err
	}

	sw.Begin("crawler/meta")
	sw.I64(e.gen.Load())
	sw.I64(int64(e.probed))
	sw.U64(uint64(len(e.pendingLate)))
	sw.I32s(e.pendingLate)
	sw.Pad8()

	sw.Begin("crawler/banner")
	hosts, banners := e.sortedBanners()
	if err := snapshot.WriteStringTable(sw, hosts); err != nil {
		return err
	}
	if err := snapshot.WriteStringTable(sw, banners); err != nil {
		return err
	}

	// Fleet shards label their exports; without a shard name the file
	// stays byte-identical to pre-fleet snapshots.
	if e.cfg.ShardName != "" {
		var names []string
		if v := e.view.Load(); v != nil {
			names = v.Names
		}
		meta := snapshot.ShardMeta{
			Shard:      e.cfg.ShardName,
			Generation: e.gen.Load(),
			CorpusHash: hashNames(names),
		}
		if err := snapshot.WriteShardMeta(sw, meta); err != nil {
			return err
		}
	}

	return sw.Finish()
}

// sortedBanners returns the banner table in sorted host order. Every
// banner belongs to a host of the last graph's host table: the kept
// order (Engine.bannerHosts) covers hosts below bannerMark, the hosts
// probed since the last write are merged into it, and hosts above
// probed with a banner — left by an Add whose probe was cancelled, and
// probed again by the next one — are merged into this write only.
// Banners are read from the table itself, so a host probed again
// writes its latest. Call it with e.mu held.
func (e *Engine) sortedBanners() (hosts, banners []string) {
	var table []string
	if g := e.b.LastGraph(); g != nil {
		table = g.Hosts()
	}
	probed := min(e.probed, len(table))
	if e.bannerMark < probed {
		e.bannerHosts = mergeSorted(e.bannerHosts, e.hostsWithBanner(table[e.bannerMark:probed]))
		e.bannerMark = probed
	}
	hosts = e.bannerHosts
	if tail := e.hostsWithBanner(table[probed:]); len(tail) > 0 {
		hosts = mergeSorted(hosts, tail)
	}
	banners = make([]string, len(hosts))
	for i, h := range hosts {
		banners[i] = e.banner[h]
	}
	return hosts, banners
}

// hostsWithBanner returns the hosts that have a banner, sorted.
func (e *Engine) hostsWithBanner(hosts []string) []string {
	var out []string
	for _, h := range hosts {
		if _, ok := e.banner[h]; ok {
			out = append(out, h)
		}
	}
	slices.Sort(out)
	return out
}

// hashNames fingerprints a sorted name list with FNV-1a, the corpus
// hash carried in shard/meta so a coordinator can tell two shards
// serving the same name partition apart from a repartition. Each name
// is followed by a zero byte.
func hashNames(names []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			h ^= uint64(n[i])
			h *= prime64
		}
		h *= prime64
	}
	return h
}

// NewEngineFromSnapshot opens a resident survey engine whose graph,
// failure tables, banners, and generation counter are restored from a
// snapshot file instead of crawled: the restart path that reproduces the
// last committed generation's Survey with zero transport queries. The
// walker's discovery caches start cold — they refill lazily as new names
// are added (transport-free for whatever a fallthrough query log
// answers). The snapshot's mapping stays referenced for the life of the
// engine's store; a failed restore releases it.
func NewEngineFromSnapshot(r *resolver.Resolver, probe func(ctx context.Context, host string) (string, error), cfg Config, path string) (*Engine, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, fmt.Errorf("crawler: snapshot %s: %w", path, err)
	}
	fail := func(err error) (*Engine, error) {
		f.Close()
		return nil, fmt.Errorf("crawler: snapshot %s: %w", path, err)
	}
	b, err := core.LoadSnapshot(f)
	if err != nil {
		return fail(err)
	}

	md := snapshot.NewSectionReader(f, "crawler/meta")
	gen := md.I64()
	probed := md.I64()
	pendingLate := append([]int32(nil), md.I32s(md.Count(4))...)
	bd := snapshot.NewSectionReader(f, "crawler/banner")
	hosts := bd.Strings()
	banners := bd.Strings()
	if err := errors.Join(md.Err(), bd.Err()); err != nil {
		return fail(err)
	}
	if len(banners) != len(hosts) {
		return fail(fmt.Errorf("%w: %d banners for %d hosts", snapshot.ErrCorrupt, len(banners), len(hosts)))
	}

	e := &Engine{
		w:           resolver.NewWalker(r),
		probe:       probe,
		cfg:         cfg,
		b:           b,
		banner:      make(map[string]string, len(hosts)),
		vulns:       make(map[string][]vulndb.Vuln),
		db:          vulndb.Default(),
		probed:      int(probed),
		pendingLate: pendingLate,
	}
	// Score each distinct banner once; hosts sharing a banner share its
	// read-only exploit slice.
	scored := make(map[string][]vulndb.Vuln)
	for i, h := range hosts {
		e.banner[h] = banners[i]
		vs, ok := scored[banners[i]]
		if !ok {
			vs = e.db.VulnsForBanner(banners[i])
			scored[banners[i]] = vs
		}
		if len(vs) > 0 {
			e.vulns[h] = vs
		}
	}
	e.w.SetObserver(e)
	e.gen.Store(gen)

	g := b.LastGraph()
	if g == nil {
		// The snapshot predates any committed crawl (an engine saved at
		// generation 0): start from a fresh empty view, like NewEngine.
		g = core.NewBuilder(0).FinishEpoch()
	}
	e.view.Store(&Survey{
		Graph:  g,
		Names:  g.Names(),
		Failed: maps.Clone(b.Failed()),
		Banner: maps.Clone(e.banner),
		Vulns:  maps.Clone(e.vulns),
		DB:     e.db,
		Stats:  CrawlStats{Generation: gen},

		Walker: e.w,
	})
	return e, nil
}
