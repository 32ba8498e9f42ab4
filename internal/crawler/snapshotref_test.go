package crawler

import (
	"hash/fnv"

	"dnstrust/internal/snapshot"
)

// This file keeps the engine's own snapshot sections as they were
// encoded before writes kept state between calls: the corpus hash taken
// through hash/fnv on every write. TestEngineSnapshotWriteMatchesReference
// holds WriteSnapshot's crawler/meta and shard/meta sections to these
// bytes; the banner column is held to its restore instead
// (TestFingerprintsRestoreEquivalence in internal/fleet).

// writeEngineSectionsReference is the reference for the sections
// Engine.WriteSnapshot appends after the builder's, but the banner
// column. Call it with e.mu held.
func writeEngineSectionsReference(e *Engine, sw *snapshot.Writer) error {
	sw.Begin("crawler/meta")
	sw.I64(e.gen.Load())
	sw.I64(int64(len(e.fp.banners)))
	sw.U64(uint64(len(e.pendingLate)))
	sw.I32s(e.pendingLate)
	sw.Pad8()

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
