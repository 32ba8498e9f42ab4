package crawler

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"dnstrust/internal/core"
	"dnstrust/internal/resolver"
	"dnstrust/internal/snapshot"
)

// Engine snapshot sections, appended after the core builder's sections
// in the same container file:
//
//	crawler/meta        generation, probed-host prefix, pending late ids
//	crawler/hostbanner  the fingerprint column (BannerSection): host i's
//	                    banner, one per probed host
//	shard/meta          optional fleet-shard label (see snapshot.ShardMeta)
//
// The probed-host prefix in crawler/meta equals the column's length.

// WriteSnapshot serializes the engine's resident state — the graph
// builder's epoch store plus the engine's generation counter and banner
// column — as one snapshot file on w. It takes the engine lock, so it
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
	sw.I64(int64(len(e.fp.banners)))
	sw.U64(uint64(len(e.pendingLate)))
	sw.I32s(e.pendingLate)
	sw.Pad8()

	if err := e.fp.WriteSection(sw); err != nil {
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

	g := b.LastGraph()
	if g == nil {
		// The snapshot predates any committed crawl (an engine saved at
		// generation 0): start from a fresh empty view, like NewEngine.
		g = core.NewBuilder(0).FinishEpoch()
	}
	gen, banners, pendingLate, err := ReadEngineMeta(f, g.NumHosts())
	if err != nil {
		return fail(err)
	}

	e := &Engine{
		w:           resolver.NewWalker(r),
		probe:       probe,
		cfg:         cfg,
		b:           b,
		fp:          NewFingerprints(),
		pendingLate: append([]int32(nil), pendingLate...),
	}
	for i, banner := range banners {
		e.fp.Set(int32(i), banner)
	}
	e.w.SetObserver(e)
	e.gen.Store(gen)
	e.view.Store(e.fp.Publish(g, nil, b.Failed(), CrawlStats{Generation: gen}, e.w))
	return e, nil
}

// ReadEngineMeta decodes crawler/meta and the BannerSection of a
// snapshot whose graph holds hosts hosts: the engine's generation, its
// fingerprint column (host i's banner, for the probed prefix of the
// hosts) and the late-attached host ids a cancelled Add drained but no
// generation reported yet. The slices are views into f.
func ReadEngineMeta(f *snapshot.File, hosts int) (gen int64, banners []string, pendingLate []int32, err error) {
	md := snapshot.NewSectionReader(f, "crawler/meta")
	gen = md.I64()
	probed := md.I64()
	pendingLate = md.I32s(md.Count(4))
	bd := snapshot.NewSectionReader(f, BannerSection)
	banners = bd.Strings()
	err = cmp.Or(md.Err(), bd.Err())
	switch {
	case err != nil:
	case len(banners) > hosts || probed != int64(len(banners)):
		err = fmt.Errorf("%w: %s: %d banners for %d hosts, %d probed", snapshot.ErrCorrupt, BannerSection, len(banners), hosts, probed)
	case slices.ContainsFunc(pendingLate, func(h int32) bool { return h < 0 || int(h) >= hosts }):
		err = fmt.Errorf("%w: crawler/meta: late-attached host outside %d hosts", snapshot.ErrCorrupt, hosts)
	}
	return gen, banners, pendingLate, err
}
