package crawler

import (
	"hash/fnv"
	"sort"

	"dnstrust/internal/snapshot"
)

// This file keeps the engine's own snapshot sections as they were
// encoded before writes kept state between calls: every banner host
// sorted again, and the corpus hash taken through hash/fnv on every
// write. TestEngineSnapshotWriteMatchesReference holds WriteSnapshot's
// crawler/meta, crawler/banner and shard/meta sections to these bytes.

// writeEngineSectionsReference is the reference for the sections
// Engine.WriteSnapshot appends after the builder's. Call it with e.mu
// held.
func writeEngineSectionsReference(e *Engine, sw *snapshot.Writer) error {
	sw.Begin("crawler/meta")
	sw.I64(e.gen.Load())
	sw.I64(int64(e.probed))
	sw.U64(uint64(len(e.pendingLate)))
	sw.I32s(e.pendingLate)
	sw.Pad8()

	sw.Begin("crawler/banner")
	hosts := make([]string, 0, len(e.banner))
	for h := range e.banner {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	banners := make([]string, len(hosts))
	for i, h := range hosts {
		banners[i] = e.banner[h]
	}
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
			CorpusHash: hashNamesReference(names),
		}
		if err := snapshot.WriteShardMeta(sw, meta); err != nil {
			return err
		}
	}

	return sw.Finish()
}

// hashNamesReference is the reference for hashNames.
func hashNamesReference(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
