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
	"fmt"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/snapshot"
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
	// Shard is the label of the optional shard/meta section; HasMeta
	// reports whether the snapshot carried one.
	Shard   string
	HasMeta bool

	// The shard's store tables, as core.Tables holds them (StoreEpoch is
	// its Epoch): attaches and mappings stamped past the StoreEpoch a
	// coordinator last applied are the shard's tail since.
	StoreEpoch   int64
	Hosts, Zones []string
	Chains       [][]int32
	ZoneNS       [][]int32
	HostChain    []int32
	HostAttached []int64

	// Names lists the resolved names with their chain ids, sorted by
	// name; Failed lists the failed names, sorted.
	Failed []NameError
	Names  []NameChain

	// Banners[i] is host i's version.bind banner, for the probed prefix
	// of Hosts.
	Banners []string

	file *snapshot.File // backs the views above for the Epoch's lifetime
}

// DecodeEpoch decodes a shard engine snapshot into its raw tables:
// the store tables as core.ReadTables checks them, the generation and
// banners as crawler.ReadEngineMeta reads them, and the shard label.
// The returned Epoch's strings and arrays are views into f: callers
// must not Close f while the Epoch is live. Nothing merged from it by a
// Coordinator refers back to f.
func DecodeEpoch(f *snapshot.File) (*Epoch, error) {
	fail := func(err error) (*Epoch, error) { return nil, fmt.Errorf("fleet: decode shard epoch: %w", err) }
	t, err := core.ReadTables(f)
	if err != nil {
		return fail(err)
	}
	gen, banners, _, err := crawler.ReadEngineMeta(f, len(t.Hosts))
	if err != nil {
		return fail(err)
	}
	meta, hasMeta, err := snapshot.ReadShardMeta(f)
	if err != nil {
		return fail(err)
	}
	ep := &Epoch{
		Generation:   gen,
		Shard:        meta.Shard,
		HasMeta:      hasMeta,
		StoreEpoch:   t.Epoch,
		Hosts:        t.Hosts,
		Zones:        t.Zones,
		Chains:       t.Chains,
		ZoneNS:       t.ZoneNS,
		HostChain:    t.HostChain,
		HostAttached: t.HostAttached,
		Failed:       make([]NameError, len(t.FailedNames)),
		Names:        make([]NameChain, 0, len(t.BaseNames)+len(t.VerNames)),
		Banners:      banners,
		file:         f,
	}
	t.Resolved(func(name string, chain int32, epoch int64) {
		ep.Names = append(ep.Names, NameChain{Name: name, Chain: chain, Epoch: epoch})
	})
	for i, n := range t.FailedNames {
		ep.Failed[i] = NameError{Name: n, Err: t.FailedErrs[i]}
	}
	return ep, nil
}
