// Package fleet turns N shard monitors into one logical survey: a
// Coordinator ingests per-shard engine snapshots (Engine.WriteSnapshot
// exports, fetched over HTTP from dnsmonitord or handed in directly),
// remaps each shard's interned zone/host/chain ids into a unioned
// intern space, and commits the merged result as the same
// generation-stamped view.View a single monitor commits — Summary, TCB,
// bottlenecks, diffs — plus the merge's own facts (shard status, stale
// set, change journal). cmd/dnsfleetd wraps it in a thin
// router that consistent-hashes names to shards for /add fan-out and
// serves the merged view.
package fleet

import (
	"encoding/binary"
	"fmt"

	"dnstrust/internal/crawler"
	"dnstrust/internal/snapshot"
)

// Host-chain sentinels, matching the core/hostchain section encoding.
const (
	chainNone  = -1 // no chain attached to the host
	chainEmpty = -2 // attached chain is the empty chain
)

// NameChain is one surveyed name, its delegation chain id in the
// shard's intern space, and the shard store epoch its mapping became
// visible at.
type NameChain struct {
	Name  string
	Chain int32
	Epoch int64
}

// NameError is one failed name and its error text.
type NameError struct {
	Name string
	Err  string
}

// Epoch is one shard's committed state, decoded from an engine
// snapshot into the raw id tables a merge needs — no store, no graph,
// no hash indexes. All ids are in the shard's own intern space; the
// Coordinator translates them through per-shard remap tables. An Epoch
// is immutable once decoded. Its strings and arrays are zero-copy views
// into the snapshot file's buffer; the Coordinator copies out whatever
// it keeps, so an Epoch that has been committed holds nothing the merge
// needs and is freed with its buffer once the caller drops it.
type Epoch struct {
	// Generation is the shard engine's committed generation.
	Generation int64
	// Shard metadata from the optional shard/meta section; HasMeta
	// reports whether the snapshot carried one.
	Shard      string
	CorpusHash uint64
	HasMeta    bool

	// StoreEpoch is the shard store's epoch counter (core/meta). Every
	// host chain attachment and name mapping below is stamped with the
	// store epoch it became visible at, so the ones past the StoreEpoch
	// a coordinator last applied are exactly the shard's tail since.
	StoreEpoch int64

	// Intern tables, indexed by shard-local id.
	Hosts  []string
	Zones  []string
	Chains [][]int32 // per-chain zone ids, in traversal order
	ZoneNS [][]int32 // per-zone NS host ids, sorted

	// HostChain maps each host id to its address chain id, or the
	// chainNone/chainEmpty sentinels; HostAttached is the store epoch
	// that chain was attached at (0 when none is).
	HostChain    []int32
	HostAttached []int64

	// Names lists the resolved names with their chain ids, sorted by
	// name; Failed lists the failed names, sorted.
	Failed []NameError
	Names  []NameChain

	// Banners is the shard's fingerprint column (crawler.BannerSection):
	// Banners[i] is host i's version.bind banner, for the probed prefix
	// of Hosts.
	Banners []string

	file *snapshot.File // backs the views above for the Epoch's lifetime
}

// DecodeEpoch decodes a shard engine snapshot into its raw tables. The
// returned Epoch's strings and arrays are views into f: callers must
// not Close f while the Epoch is live. Nothing merged from it by a
// Coordinator refers back to f.
func DecodeEpoch(f *snapshot.File) (*Epoch, error) {
	ep := &Epoch{file: f}

	md := snapshot.NewSectionReader(f, "crawler/meta")
	ep.Generation = md.I64()
	if err := md.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}

	meta, ok, err := snapshot.ReadShardMeta(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if ok {
		ep.Shard, ep.CorpusHash, ep.HasMeta = meta.Shard, meta.CorpusHash, true
	}

	// core/meta opens with the store epoch and the base epoch.
	cm := snapshot.NewSectionReader(f, "core/meta")
	ep.StoreEpoch = cm.I64()
	baseEpoch := cm.I64()
	if err := cm.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}

	hd := snapshot.NewSectionReader(f, "core/hosts")
	ep.Hosts = hd.Strings()
	zd := snapshot.NewSectionReader(f, "core/zones")
	ep.Zones = zd.Strings()
	cd := snapshot.NewSectionReader(f, "core/chains")
	ep.Chains = snapshot.ReadIDTable(cd)
	nd := snapshot.NewSectionReader(f, "core/zonens")
	ep.ZoneNS = snapshot.ReadIDTable(nd)
	if err := firstErr(hd, zd, cd, nd); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if len(ep.ZoneNS) != len(ep.Zones) {
		return nil, corruptf("core/zonens", "%d entries for %d zones", len(ep.ZoneNS), len(ep.Zones))
	}
	for z, ns := range ep.ZoneNS {
		for _, h := range ns {
			if int(h) >= len(ep.Hosts) || h < 0 {
				return nil, corruptf("core/zonens", "zone %d references host %d of %d", z, h, len(ep.Hosts))
			}
		}
	}
	for c, ids := range ep.Chains {
		for _, z := range ids {
			if int(z) >= len(ep.Zones) || z < 0 {
				return nil, corruptf("core/chains", "chain %d references zone %d of %d", c, z, len(ep.Zones))
			}
		}
	}

	hc := snapshot.NewSectionReader(f, "core/hostchain")
	nHosts := hc.Count(12)
	ep.HostAttached = hc.I64s(nHosts)
	ep.HostChain = hc.I32s(nHosts)
	if err := hc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if nHosts != len(ep.Hosts) {
		return nil, corruptf("core/hostchain", "%d entries for %d hosts", nHosts, len(ep.Hosts))
	}
	for h, cid := range ep.HostChain {
		if cid != chainNone && cid != chainEmpty && (cid < 0 || int(cid) >= len(ep.Chains)) {
			return nil, corruptf("core/hostchain", "host %d references chain %d of %d", h, cid, len(ep.Chains))
		}
	}

	// Resolved names: the base table (first-epoch names, all present)
	// plus the latest present version of each versioned name.
	bd := snapshot.NewSectionReader(f, "core/base")
	nBase := bd.Count(4)
	baseCids := bd.I32s(nBase)
	bd.Pad8()
	baseNames := bd.Strings()
	if err := bd.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if len(baseNames) != nBase {
		return nil, corruptf("core/base", "%d names for %d ids", len(baseNames), nBase)
	}

	vd := snapshot.NewSectionReader(f, "core/names")
	nVer := vd.Count(4)
	verTotal := vd.Count(16)
	verCounts := vd.I32s(nVer)
	vd.Pad8()
	verPool := vd.Take(16 * verTotal)
	verNames := vd.Strings()
	if err := vd.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if len(verNames) != nVer {
		return nil, corruptf("core/names", "%d names for %d histories", len(verNames), nVer)
	}

	// Both tables are written in name order and hold disjoint names, so
	// one merge pass lists Names sorted; any input that breaks either
	// property is corrupt.
	ep.Names = make([]NameChain, 0, nBase+nVer)
	bi, vi, vp := 0, 0, 0
	for bi < nBase || vi < nVer {
		if vi == nVer || (bi < nBase && baseNames[bi] < verNames[vi]) {
			n, cid := baseNames[bi], baseCids[bi]
			if bi > 0 && baseNames[bi-1] >= n {
				return nil, corruptf("core/base", "name %q out of order", n)
			}
			if int(cid) >= len(ep.Chains) || cid < 0 {
				return nil, corruptf("core/base", "name %q references chain %d of %d", n, cid, len(ep.Chains))
			}
			ep.Names = append(ep.Names, NameChain{Name: n, Chain: cid, Epoch: baseEpoch})
			bi++
			continue
		}
		n := verNames[vi]
		if bi < nBase && baseNames[bi] == n {
			return nil, corruptf("core/names", "name %q is also a base name", n)
		}
		if vi > 0 && verNames[vi-1] >= n {
			return nil, corruptf("core/names", "name %q out of order", n)
		}
		cnt := int(verCounts[vi])
		if cnt < 1 || vp+cnt > verTotal {
			return nil, corruptf("core/names", "history of %q overruns the version pool", n)
		}
		// Only the newest version matters for a merge: the shard's
		// history is already linearized in its own store.
		rec := verPool[16*(vp+cnt-1):]
		at := int64(binary.LittleEndian.Uint64(rec))
		cid := int32(binary.LittleEndian.Uint32(rec[8:]))
		present := binary.LittleEndian.Uint32(rec[12:]) != 0
		vp += cnt
		vi++
		if !present {
			continue
		}
		if int(cid) >= len(ep.Chains) || cid < 0 {
			return nil, corruptf("core/names", "name %q references chain %d of %d", n, cid, len(ep.Chains))
		}
		ep.Names = append(ep.Names, NameChain{Name: n, Chain: cid, Epoch: at})
	}

	fd := snapshot.NewSectionReader(f, "core/failed")
	failedNames := fd.Strings()
	failedErrs := fd.Strings()
	if err := fd.Err(); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}
	if len(failedErrs) != len(failedNames) {
		return nil, corruptf("core/failed", "%d errors for %d names", len(failedErrs), len(failedNames))
	}
	ep.Failed = make([]NameError, len(failedNames))
	for i, n := range failedNames {
		ep.Failed[i] = NameError{Name: n, Err: failedErrs[i]}
	}

	if ep.Banners, err = crawler.ReadBanners(f, len(ep.Hosts)); err != nil {
		return nil, fmt.Errorf("fleet: decode shard epoch: %w", err)
	}

	return ep, nil
}

// corruptf wraps snapshot.ErrCorrupt with section context, mirroring
// the core loader's convention.
func corruptf(sec, format string, args ...any) error {
	return fmt.Errorf("fleet: decode shard epoch: %w: %s: %s",
		snapshot.ErrCorrupt, sec, fmt.Sprintf(format, args...))
}

func firstErr(ds ...*snapshot.SectionReader) error {
	for _, d := range ds {
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}
