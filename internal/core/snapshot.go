package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"dnstrust/internal/snapshot"
)

// This file persists a Builder — the epoch store plus the builder's own
// resumable state — into the snapshot container, and loads it back. The
// layout mirrors the in-memory design: append-only intern arrays become
// flat sections of int32 ids, aliasing between id slices (closures and
// TCBs interned by content, copy-on-write across epochs) is preserved
// through a shared id pool per table, and strings load zero-copy as
// views into the mapped file. A load reads the name side off the file's
// sorted name tables: the last graph's name list and chain-id column in
// one merge of core/base and core/names, the per-chain name lists in one
// counting pass into a single array, and the builder's sorted write
// orders as copies. It rebuilds only the store's hash indexes (hostID,
// zoneID, base, names) and copies the host chain columns — linear in
// table size, no sort, no transport traffic, no replay. The builder's
// chain dedup index (chainIDs) is built by the first chain intern, not
// by the load. The restored closures and TCBs stay views and are not
// pooled (setPool): a set built after the restore does not alias an
// equal restored one.
//
// Sections (all inside the snapshot container, see package snapshot):
//
//	core/meta        epoch, baseEpoch, journalFloor, pinned graph dims, flags
//	core/hosts       string table of interned nameserver hosts
//	core/zones       string table of interned zone apexes
//	core/chains      id table: interned delegation chains (zone ids)
//	core/zonens      id table: per-zone NS host ids
//	core/hostchain   per-host attach epoch + chain id (-1 none, -2 empty)
//	core/closure     id table: last graph's per-zone transitive host sets
//	core/zoneadj     id table: last graph's zone dependency adjacency
//	core/chaintcb    id table: last graph's per-chain TCB host sets
//	core/chainstamp  last graph's per-chain change epochs
//	core/base        name -> chain id for untouched first-epoch names
//	core/names       versioned name -> chain histories
//	core/journal     per-epoch touched-name journals above the pruned floor
//	core/touched     builder's uncommitted touched buffer
//	core/failed      failed names and their error strings
//	core/failedchain name -> chain id retained for failed names
//	core/pending     chains awaiting their host's interning
//	core/late        late-attached host ids not yet drained
//
// hostChainAt is the one array the builder writes in place (a pending
// chain attaching to an existing host), so the loader copies it to the
// heap; every other array may remain a read-only view into the mapping.

// Host-chain sentinels in core/hostchain and Tables.HostChain.
const (
	HostChainNone  = -1 // no chain attached
	HostChainEmpty = -2 // attached chain is the empty chain
)

// metaFlags bits.
const (
	metaShared  = 1 << 0 // a live-store graph has been published
	metaHasPrev = 1 << 1 // a previous epoch's graph exists
)

// WriteSnapshot serializes the builder and its epoch store as one
// complete snapshot file on w. The caller must ensure the builder is
// quiescent (no concurrent event feeding, and no other write: a write
// updates the sorted orders the builder keeps for the next one) — the
// crawl engine holds its commit lock, exactly like between Adds.
// Concurrent Graph readers are unaffected.
func (b *Builder) WriteSnapshot(w io.Writer) error {
	sw := snapshot.NewWriter(w)
	if err := b.WriteSections(sw); err != nil {
		return err
	}
	return sw.Finish()
}

// WriteSections encodes the builder's sections into an already open
// snapshot writer, letting embedding layers (the crawl engine) append
// their own sections to the same file before Finish.
func (b *Builder) WriteSections(w *snapshot.Writer) error {
	st := b.st

	var flags uint32
	if b.shared {
		flags |= metaShared
	}
	if b.prev != nil {
		flags |= metaHasPrev
	}
	var nH, nZ, nC, numNames int
	var closure, zoneAdj, chainTCB [][]int32
	var chainStamp []int64
	if b.prev != nil && b.prev.st == st {
		g := b.prev
		nH, nZ, nC, numNames = len(g.hosts), len(g.zones), len(g.chains), g.numNames
		closure, zoneAdj, chainTCB, chainStamp = g.closure, g.zoneAdj, g.chainTCB, g.chainStamp
	}

	w.Begin("core/meta")
	w.I64(b.epoch)
	w.I64(st.baseEpoch)
	w.I64(st.journalFloor)
	w.U64(uint64(numNames))
	w.U64(uint64(nH))
	w.U64(uint64(nZ))
	w.U64(uint64(nC))
	w.U64(uint64(b.epochHosts))
	w.U32(flags)
	w.U32(0)

	w.Begin("core/hosts")
	if err := snapshot.WriteStringTable(w, st.hosts); err != nil {
		return err
	}
	w.Begin("core/zones")
	if err := snapshot.WriteStringTable(w, st.zones); err != nil {
		return err
	}
	// The append-only intern tables and the copy-on-write zoneadj build
	// every entry on its own backing array. Closures and chain TCBs are
	// interned by content (setPool), so their tables are deduplicated by
	// backing identity: each distinct set is written once per table. A
	// restored view is not pooled, so a set built since the restore that
	// equals it is written a second time.
	w.Begin("core/chains")
	snapshot.WriteDistinctIDTable(w, st.chains)
	w.Begin("core/zonens")
	snapshot.WriteDistinctIDTable(w, st.zoneNS)

	w.Begin("core/hostchain")
	w.U64(uint64(len(st.hostChain)))
	w.I64s(st.hostChainAt)
	w.I32s(st.hostChainID)
	w.Pad8()

	w.Begin("core/closure")
	snapshot.WriteIDTable(w, closure)
	w.Begin("core/zoneadj")
	snapshot.WriteDistinctIDTable(w, zoneAdj)
	w.Begin("core/chaintcb")
	snapshot.WriteIDTable(w, chainTCB)
	w.Begin("core/chainstamp")
	w.U64(uint64(len(chainStamp)))
	w.I64s(chainStamp)

	// Map-backed sections are written in sorted key order so identical
	// state always serializes to identical bytes.
	w.Begin("core/base")
	baseNames, baseCids := b.sortedBase()
	w.U64(uint64(len(baseNames)))
	w.I32s(baseCids)
	w.Pad8()
	if err := snapshot.WriteStringTable(w, baseNames); err != nil {
		return err
	}

	w.Begin("core/names")
	verNames := b.sortedVersioned()
	var verTotal uint64
	for _, n := range verNames {
		vs := st.names[n]
		verTotal++
		if vs.more != nil {
			verTotal += uint64(len(*vs.more))
		}
	}
	w.U64(uint64(len(verNames)))
	w.U64(verTotal)
	for _, n := range verNames {
		vs := st.names[n]
		cnt := uint32(1)
		if vs.more != nil {
			cnt += uint32(len(*vs.more))
		}
		w.U32(cnt)
	}
	w.Pad8()
	writeVersion := func(v nameVer) {
		w.I64(v.epoch)
		w.I32(v.cid)
		if v.present {
			w.U32(1)
		} else {
			w.U32(0)
		}
	}
	for _, n := range verNames {
		vs := st.names[n]
		writeVersion(vs.v0)
		if vs.more != nil {
			for _, v := range *vs.more {
				writeVersion(v)
			}
		}
	}
	if err := snapshot.WriteStringTable(w, verNames); err != nil {
		return err
	}

	w.Begin("core/journal")
	epochs := make([]int64, 0, len(st.touched))
	for e := range st.touched {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	w.U64(uint64(len(epochs)))
	w.I64s(epochs)
	var jnames []string
	for _, e := range epochs {
		w.U32(uint32(len(st.touched[e])))
		jnames = append(jnames, st.touched[e]...)
	}
	w.Pad8()
	if err := snapshot.WriteStringTable(w, jnames); err != nil {
		return err
	}

	w.Begin("core/touched")
	if err := snapshot.WriteStringTable(w, b.touched); err != nil {
		return err
	}

	w.Begin("core/failed")
	failedNames := sortedKeys(b.failed)
	if err := snapshot.WriteStringTable(w, failedNames); err != nil {
		return err
	}
	errStrs := make([]string, len(failedNames))
	for i, n := range failedNames {
		errStrs[i] = b.failed[n].Error()
	}
	if err := snapshot.WriteStringTable(w, errStrs); err != nil {
		return err
	}

	w.Begin("core/failedchain")
	fcNames := sortedKeys(b.failedChain)
	w.U64(uint64(len(fcNames)))
	for _, n := range fcNames {
		w.I32(b.failedChain[n])
	}
	w.Pad8()
	if err := snapshot.WriteStringTable(w, fcNames); err != nil {
		return err
	}

	w.Begin("core/pending")
	pKeys := sortedKeys(b.pending)
	w.U64(uint64(len(pKeys)))
	var pElems []string
	for _, k := range pKeys {
		w.U32(uint32(len(b.pending[k])))
		pElems = append(pElems, b.pending[k]...)
	}
	w.Pad8()
	if err := snapshot.WriteStringTable(w, pKeys); err != nil {
		return err
	}
	if err := snapshot.WriteStringTable(w, pElems); err != nil {
		return err
	}

	w.Begin("core/late")
	late := make([]int32, 0, len(b.lateAttached))
	for hid := range b.lateAttached {
		late = append(late, hid)
	}
	sortUnique(&late)
	w.U64(uint64(len(late)))
	w.I32s(late)
	w.Pad8()

	return w.Err()
}

// sortedBase returns the base table in sorted name order with its chain
// ids. The order is kept between writes once the first graph has been
// published (Builder.baseNames), and a base that has shrunk since is
// filtered rather than sorted again.
func (b *Builder) sortedBase() ([]string, []int32) {
	base := b.st.base
	names, cids := b.baseNames, b.baseCids
	switch {
	case names == nil || !b.shared:
		names = sortedKeys(base)
		cids = make([]int32, len(names))
		for i, n := range names {
			cids[i] = base[n]
		}
	case len(names) != len(base):
		k := 0
		for i, n := range names {
			if _, ok := base[n]; ok {
				names[k], cids[k] = n, cids[i]
				k++
			}
		}
		clear(names[k:])
		names, cids = names[:k], cids[:k]
	}
	if b.shared {
		b.baseNames, b.baseCids = names, cids
	}
	return names, cids
}

// sortedVersioned returns the versioned name table's names in sorted
// order: the order kept since the last write (Builder.verNames) with the
// names journaled since merged in, or, on the first write, a sort.
func (b *Builder) sortedVersioned() []string {
	st := b.st
	names := b.verNames
	if names != nil && len(names) != len(st.names) {
		add := make([]string, 0, max(len(st.names)-len(names), 0))
		for _, touched := range [][]string{b.verTouched, b.touched} {
			for _, n := range touched {
				if _, found := slices.BinarySearch(names, n); !found {
					add = append(add, n)
				}
			}
		}
		slices.Sort(add)
		names = mergeSorted(names, slices.Compact(add))
	}
	if names == nil || len(names) != len(st.names) {
		names = sortedKeys(st.names)
	}
	clear(b.verTouched)
	b.verNames, b.verTouched = names, b.verTouched[:0]
	return names
}

// mergeSorted merges add, sorted and disjoint from s, into sorted s in
// place from the back.
func mergeSorted(s, add []string) []string {
	i, j := len(s)-1, len(add)-1
	s = slices.Grow(s, len(add))[:len(s)+len(add)]
	for k := len(s) - 1; j >= 0; k-- {
		if i >= 0 && s[i] > add[j] {
			s[k] = s[i]
			i--
		} else {
			s[k] = add[j]
			j--
		}
	}
	return s
}

// LoadSnapshot reconstructs a builder from an opened snapshot file: the
// store from ReadTables plus the last graph's tables and the builder's
// own sections. The hash indexes are rebuilt and the name lists cut
// from the sorted tables (linear in table sizes); everything else
// loads as views over the file's sections. The store keeps a reference
// to f, so callers must not Close it while the builder or any of its
// graphs live.
func LoadSnapshot(f *snapshot.File) (*Builder, error) {
	t, err := ReadTables(f)
	if err != nil {
		return nil, err
	}
	hosts, zones, chains, nH, nZ, nC := t.Hosts, t.Zones, t.Chains, t.nH, t.nZ, t.nC
	shared := t.flags&metaShared != 0

	// The host chain columns are written in place as chains attach, so
	// they are copied off the mapping rather than viewed.
	hostChainAt := append([]int64(nil), t.HostAttached...)
	hostChainID := append([]int32(nil), t.HostChain...)
	hostChain := make([][]int32, len(hosts))
	for h, cid := range t.HostChain {
		switch cid {
		case HostChainNone:
		case HostChainEmpty:
			hostChain[h] = []int32{}
		default:
			hostChain[h] = chains[cid]
		}
	}

	cld := snapshot.NewSectionReader(f, "core/closure")
	closure := snapshot.ReadIDTable(cld, nH)
	ad := snapshot.NewSectionReader(f, "core/zoneadj")
	zoneAdj := snapshot.ReadIDTable(ad, nZ)
	td := snapshot.NewSectionReader(f, "core/chaintcb")
	chainTCB := snapshot.ReadIDTable(td, nH)
	sd := snapshot.NewSectionReader(f, "core/chainstamp")
	chainStamp := sd.I64s(sd.Count(8))
	if err := cmp.Or(cld.Err(), ad.Err(), td.Err(), sd.Err()); err != nil {
		return nil, err
	}
	if shared && (len(closure) != nZ || len(zoneAdj) != nZ || len(chainTCB) != nC || len(chainStamp) != nC) {
		return nil, corruptf("core/closure", "graph table dims do not match pinned dims")
	}

	jd := snapshot.NewSectionReader(f, "core/journal")
	nEpochs := jd.Count(12)
	jEpochs := jd.I64s(nEpochs)
	jCounts := jd.I32s(nEpochs)
	jd.Pad8()
	jNames := jd.Strings()

	ud := snapshot.NewSectionReader(f, "core/touched")
	touchedBuf := ud.Strings()

	fcd := snapshot.NewSectionReader(f, "core/failedchain")
	nFC := fcd.Count(4)
	fcCids := fcd.I32s(nFC)
	fcd.Pad8()
	fcNames := fcd.Strings()
	if fcd.Err() == nil && len(fcNames) != nFC {
		return nil, corruptf("core/failedchain", "%d names for %d ids", len(fcNames), nFC)
	}

	pd := snapshot.NewSectionReader(f, "core/pending")
	nPend := pd.Count(4)
	pendCounts := pd.I32s(nPend)
	pd.Pad8()
	pendKeys := pd.Strings()
	pendElems := pd.Strings()
	if pd.Err() == nil && len(pendKeys) != nPend {
		return nil, corruptf("core/pending", "%d keys for %d counts", len(pendKeys), nPend)
	}

	ld := snapshot.NewSectionReader(f, "core/late")
	lateIDs := ld.I32s(ld.Count(4))

	if err := cmp.Or(jd.Err(), ud.Err(), fcd.Err(), pd.Err(), ld.Err()); err != nil {
		return nil, err
	}

	// Assemble the store and build its hash indexes; the name lists are
	// cut from the file's sorted tables.
	chainNames, versionedPresent := t.chainNames()
	st := &store{
		hostID:       make(map[string]int32, len(hosts)),
		zoneID:       make(map[string]int32, len(zones)),
		hosts:        hosts,
		zones:        zones,
		chains:       chains,
		zoneNS:       t.ZoneNS,
		hostChain:    hostChain,
		hostChainAt:  hostChainAt,
		hostChainID:  hostChainID,
		base:         make(map[string]int32, len(t.BaseNames)),
		baseEpoch:    t.BaseEpoch,
		names:        make(map[string]nameVers, len(t.VerNames)),
		chainNames:   chainNames,
		touched:      make(map[int64][]string, nEpochs),
		journalFloor: t.journalFloor,
		snap:         f,
	}
	for i, h := range hosts {
		st.hostID[h] = int32(i)
	}
	for i, z := range zones {
		st.zoneID[z] = int32(i)
	}
	for i, n := range t.BaseNames {
		st.base[n] = t.BaseChains[i]
	}
	for i, n := range t.VerNames {
		h := t.history[i]
		vs := nameVers{v0: h[0]}
		if len(h) > 1 {
			more := h[1:]
			vs.more = &more
		}
		st.names[n] = vs
	}
	ji := 0
	for i, e := range jEpochs {
		cnt := int(jCounts[i])
		if cnt < 0 || ji+cnt > len(jNames) {
			return nil, corruptf("core/journal", "epoch %d overruns the name list", e)
		}
		st.touched[e] = jNames[ji : ji+cnt : ji+cnt]
		ji += cnt
	}

	// The chain dedup index is left to the first chain intern
	// (indexChainsLocked). The sorted write orders are seeded from the
	// file as copies: a write filters the base order in place.
	b := &Builder{
		st:               st,
		epoch:            t.Epoch,
		pending:          make(map[string][]string, nPend),
		failedChain:      make(map[string]int32, nFC),
		failed:           make(map[string]error, len(t.FailedNames)),
		versionedPresent: versionedPresent,
		touched:          touchedBuf,
		shared:           shared,
		epochHosts:       t.epochHosts,
		lateAttached:     make(map[int32]struct{}, len(lateIDs)),
		verNames:         slices.Clone(t.VerNames),
	}
	if shared {
		b.baseNames, b.baseCids = slices.Clone(t.BaseNames), slices.Clone(t.BaseChains)
	}
	for i, n := range t.FailedNames {
		b.failed[n] = errors.New(t.FailedErrs[i])
	}
	for i, n := range fcNames {
		cid := fcCids[i]
		if cid < 0 || int(cid) >= len(chains) {
			return nil, corruptf("core/failedchain", "name %q references chain %d of %d", n, cid, len(chains))
		}
		b.failedChain[n] = cid
	}
	pi := 0
	for i, k := range pendKeys {
		cnt := int(pendCounts[i])
		if cnt < 0 || pi+cnt > len(pendElems) {
			return nil, corruptf("core/pending", "chain of %q overruns the element list", k)
		}
		b.pending[k] = pendElems[pi : pi+cnt : pi+cnt]
		pi += cnt
	}
	for _, hid := range lateIDs {
		if hid < 0 || int(hid) >= nH {
			return nil, corruptf("core/late", "host %d is not below the pinned %d", hid, nH)
		}
		b.lateAttached[hid] = struct{}{}
	}

	if t.flags&metaHasPrev != 0 {
		if shared {
			b.prev = &Graph{
				st:         st,
				epoch:      t.Epoch,
				hosts:      hosts[:nH:nH],
				zones:      zones[:nZ:nZ],
				chains:     chains[:nC:nC],
				zoneNS:     t.ZoneNS[:nZ:nZ],
				numNames:   t.numNames,
				closure:    closure,
				zoneAdj:    zoneAdj,
				chainTCB:   chainTCB,
				chainStamp: chainStamp[:nC:nC], // a view of the file: never appended to in place
			}
			// Its name list is merged off the sorted tables, so no
			// reader collects and sorts the store's maps for it.
			names := make([]string, 0, t.numNames)
			ids := make([]int32, 0, t.numNames)
			t.resolvedAt(t.Epoch, func(name string, chain int32, _ int64) {
				names, ids = append(names, name), append(ids, chain)
			})
			b.prev.namesOnce.Do(func() { b.prev.names, b.prev.nameCIDs = names, ids })
		} else {
			// The last committed epoch predates any live-store content:
			// reconstruct the builder's empty-store graph.
			b.prev = emptyGraph(t.Epoch)
		}
	}
	return b, nil
}

// Tables is the store content of a snapshot's core/* sections, decoded
// and checked: every id lies inside the table it indexes, the base and
// versioned name tables are each sorted and share no name, and what the
// last committed graph can see names only what that graph pinned.
// LoadSnapshot builds its store from it; the fleet merges another
// process's store from it without building one. Strings and arrays are
// zero-copy views into the snapshot.
type Tables struct {
	// Epoch is the store's epoch counter: host chain attaches and name
	// mappings are stamped with the epoch they became visible at; base
	// names are visible from BaseEpoch on.
	Epoch, BaseEpoch int64
	Hosts, Zones     []string
	Chains, ZoneNS   [][]int32 // per-chain zone ids; per-zone NS host ids
	// HostChain is each host's chain id, HostChainNone or
	// HostChainEmpty, attached at epoch HostAttached (0: none).
	HostChain    []int32
	HostAttached []int64
	// BaseNames (sorted, chain ids in BaseChains) were mapped in the
	// first live epoch and never touched since; VerNames (sorted) are
	// the rest, read through Resolved.
	BaseNames               []string
	BaseChains              []int32
	VerNames                []string
	FailedNames, FailedErrs []string // sorted failed names, their errors

	history              [][]nameVer // VerNames[i]'s versions, oldest first
	journalFloor         int64
	numNames, epochHosts int
	nH, nZ, nC           int // the last graph's pinned table lengths
	flags                uint32
}

// ReadTables decodes and checks a snapshot's core/meta, hosts, zones,
// chains, zonens, hostchain, base, names and failed sections. Contents
// that are not a consistent store fail with an error wrapping
// snapshot.ErrCorrupt that names the section.
func ReadTables(f *snapshot.File) (*Tables, error) {
	t := &Tables{}
	md := snapshot.NewSectionReader(f, "core/meta")
	t.Epoch, t.BaseEpoch, t.journalFloor = md.I64(), md.I64(), md.I64()
	t.numNames, t.nH, t.nZ, t.nC, t.epochHosts = md.Int(), md.Int(), md.Int(), md.Int(), md.Int()
	t.flags = md.U32()
	hd := snapshot.NewSectionReader(f, "core/hosts")
	t.Hosts = hd.Strings()
	zd := snapshot.NewSectionReader(f, "core/zones")
	t.Zones = zd.Strings()
	if err := cmp.Or(md.Err(), hd.Err(), zd.Err()); err != nil {
		return nil, err
	}
	cd := snapshot.NewSectionReader(f, "core/chains")
	t.Chains = snapshot.ReadIDTable(cd, len(t.Zones))
	nd := snapshot.NewSectionReader(f, "core/zonens")
	t.ZoneNS = snapshot.ReadIDTable(nd, len(t.Hosts))
	hc := snapshot.NewSectionReader(f, "core/hostchain")
	nHosts := hc.Count(12)
	t.HostAttached = hc.I64s(nHosts)
	t.HostChain = hc.I32s(nHosts)
	bd := snapshot.NewSectionReader(f, "core/base")
	nBase := bd.Count(4)
	t.BaseChains = bd.I32s(nBase)
	bd.Pad8()
	t.BaseNames = bd.Strings()
	vd := snapshot.NewSectionReader(f, "core/names")
	nVer := vd.Count(4)
	verTotal := vd.Count(16)
	verCounts := vd.I32s(nVer)
	vd.Pad8()
	verPool := vd.Take(16 * verTotal)
	t.VerNames = vd.Strings()
	fd := snapshot.NewSectionReader(f, "core/failed")
	t.FailedNames = fd.Strings()
	t.FailedErrs = fd.Strings()
	if err := cmp.Or(cd.Err(), nd.Err(), hc.Err(), bd.Err(), vd.Err(), fd.Err()); err != nil {
		return nil, err
	}
	switch {
	case t.journalFloor < 0:
		return nil, corruptf("core/meta", "journal floor %d", t.journalFloor)
	case t.nH > len(t.Hosts) || t.nZ > len(t.Zones) || t.nC > len(t.Chains):
		return nil, corruptf("core/meta", "pinned dims exceed table sizes")
	case t.numNames > nBase+nVer:
		return nil, corruptf("core/meta", "%d names in the last graph, %d in the store", t.numNames, nBase+nVer)
	case slices.Contains(t.Zones, ""):
		return nil, corruptf("core/zones", "the root is not a zone")
	case len(t.ZoneNS) != len(t.Zones):
		return nil, corruptf("core/zonens", "%d entries for %d zones", len(t.ZoneNS), len(t.Zones))
	case nHosts != len(t.Hosts):
		return nil, corruptf("core/hostchain", "%d entries for %d hosts", nHosts, len(t.Hosts))
	case len(t.BaseNames) != nBase:
		return nil, corruptf("core/base", "%d names for %d ids", len(t.BaseNames), nBase)
	case len(t.VerNames) != nVer:
		return nil, corruptf("core/names", "%d names for %d histories", len(t.VerNames), nVer)
	case len(t.FailedErrs) != len(t.FailedNames):
		return nil, corruptf("core/failed", "%d errors for %d names", len(t.FailedErrs), len(t.FailedNames))
	}

	// Once a graph of the live store is published (metaShared), what it
	// sees of the tables may name only what it pinned: the first nC
	// chains only its zones, its zones only its hosts, and a host chain
	// or name mapping visible at its epoch only its chains.
	shared := t.flags&metaShared != 0
	if shared {
		if err := checkPinned("core/chains", t.Chains[:t.nC], t.nZ, len(t.Zones)); err != nil {
			return nil, err
		}
		if err := checkPinned("core/zonens", t.ZoneNS[:t.nZ], t.nH, len(t.Hosts)); err != nil {
			return nil, err
		}
	}
	chainBound := func(at int64) int {
		if shared && at <= t.Epoch {
			return t.nC
		}
		return len(t.Chains)
	}
	for h, cid := range t.HostChain {
		if cid == HostChainNone || cid == HostChainEmpty {
			continue
		}
		bound := len(t.Chains)
		if at := t.HostAttached[h]; h < t.nH && at != 0 {
			bound = chainBound(at)
		}
		if cid < 0 || int(cid) >= bound || len(t.Chains[cid]) == 0 {
			return nil, corruptf("core/hostchain", "host %d references chain %d of %d", h, cid, bound)
		}
	}

	baseBound := chainBound(math.MinInt64) // base names are visible at every epoch
	for i, n := range t.BaseNames {
		if i > 0 && n <= t.BaseNames[i-1] {
			return nil, corruptf("core/base", "name %q out of order", n)
		}
		if cid := t.BaseChains[i]; cid < 0 || int(cid) >= baseBound {
			return nil, corruptf("core/base", "name %q references chain %d of %d", n, cid, baseBound)
		}
	}
	t.history = make([][]nameVer, nVer)
	vers := make([]nameVer, verTotal)
	vp := 0
	for i, n := range t.VerNames {
		cnt := int(verCounts[i])
		switch _, inBase := slices.BinarySearch(t.BaseNames, n); {
		case i > 0 && n <= t.VerNames[i-1]:
			return nil, corruptf("core/names", "name %q out of order", n)
		case inBase:
			return nil, corruptf("core/names", "name %q is also a base name", n)
		case cnt < 1 || vp+cnt > verTotal:
			return nil, corruptf("core/names", "history of %q overruns the version pool", n)
		}
		h := vers[vp : vp+cnt : vp+cnt]
		for j := range h {
			rec := verPool[16*(vp+j):]
			v := nameVer{
				epoch:   int64(binary.LittleEndian.Uint64(rec)),
				cid:     int32(binary.LittleEndian.Uint32(rec[8:])),
				present: binary.LittleEndian.Uint32(rec[12:]) != 0,
			}
			bound := len(t.Chains)
			if v.present {
				bound = chainBound(v.epoch)
			}
			if v.cid < 0 || int(v.cid) >= bound {
				return nil, corruptf("core/names", "name %q references chain %d of %d", n, v.cid, bound)
			}
			h[j] = v
		}
		t.history[i] = h
		vp += cnt
	}
	return t, nil
}

// Resolved calls fn for every name whose newest mapping is present, in
// name order, with its chain id and the epoch that mapping became
// visible at.
func (t *Tables) Resolved(fn func(name string, chain int32, epoch int64)) {
	t.resolvedAt(math.MaxInt64, fn)
}

// resolvedAt is Resolved as seen at epoch at: for a versioned name, its
// newest version at or below at decides, as Graph.nameAtLocked decides
// it. The base and versioned tables are each sorted and disjoint
// (ReadTables), so one merge of the two yields the names in order.
func (t *Tables) resolvedAt(at int64, fn func(name string, chain int32, epoch int64)) {
	bi := 0
	for i, n := range t.VerNames {
		for ; bi < len(t.BaseNames) && t.BaseNames[bi] < n; bi++ {
			fn(t.BaseNames[bi], t.BaseChains[bi], t.BaseEpoch)
		}
		h := t.history[i]
		j := len(h) - 1
		for j >= 0 && h[j].epoch > at {
			j--
		}
		if j >= 0 && h[j].present {
			fn(n, h[j].cid, h[j].epoch)
		}
	}
	for ; bi < len(t.BaseNames); bi++ {
		fn(t.BaseNames[bi], t.BaseChains[bi], t.BaseEpoch)
	}
}

// chainNames cuts the store's per-chain name lists (store.chainNames)
// out of one array, counted and then filled in one pass each: a chain
// lists its base names, then every versioned name on its first
// version's chain, as Complete listed it, and on the chain of every
// later version that is present. Each list is capped at its own end, so
// a later append to it copies instead of writing over the next chain's
// names. It also counts the versioned names whose newest version is
// present (Builder.versionedPresent).
func (t *Tables) chainNames() ([][]string, int) {
	off := make([]int, len(t.Chains))
	visit := func(fn func(name string, cid int32)) {
		for i, n := range t.BaseNames {
			fn(n, t.BaseChains[i])
		}
		for i, n := range t.VerNames {
			for j, v := range t.history[i] {
				if j == 0 || v.present {
					fn(n, v.cid)
				}
			}
		}
	}
	visit(func(_ string, cid int32) { off[cid]++ })
	total := 0
	for c, n := range off {
		off[c], total = total, total+n
	}
	flat := make([]string, total)
	visit(func(name string, cid int32) {
		flat[off[cid]] = name
		off[cid]++
	})
	lists := make([][]string, len(t.Chains))
	lo := 0
	for c, hi := range off {
		lists[c], lo = flat[lo:hi:hi], hi
	}
	present := 0
	for _, h := range t.history {
		if h[len(h)-1].present {
			present++
		}
	}
	return lists, present
}

// checkPinned fails when table, the part of an id table the last graph
// sees, holds an id at or past bound, the size of what that graph
// pinned. ReadIDTable has already held every id below full, the whole
// table's size, so nothing is left to check when the two are equal.
func checkPinned(sec string, table [][]int32, bound, full int) error {
	for i := 0; i < len(table) && bound < full; i++ {
		for _, id := range table[i] {
			if int(id) >= bound {
				return corruptf(sec, "entry %d holds id %d past the last graph's %d", i, id, bound)
			}
		}
	}
	return nil
}

// LastGraph returns the graph of the last committed epoch — after a
// load, the graph the snapshot was taken at — or nil when no epoch has
// been finished. It is the same immutable value FinishEpoch returned.
func (b *Builder) LastGraph() *Graph { return b.prev }

// Epoch reports the builder's current committed epoch count.
func (b *Builder) Epoch() int64 { return b.epoch }

// corruptf wraps snapshot.ErrCorrupt with section context: the file's
// checksums passed but its contents are not a consistent store.
func corruptf(sec, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", snapshot.ErrCorrupt, sec, fmt.Sprintf(format, args...))
}

// sortedKeys returns a map's string keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
