package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"dnstrust/internal/snapshot"
)

// This file persists a Builder — the epoch store plus the builder's own
// resumable state — into the snapshot container, and loads it back. The
// layout mirrors the in-memory design: append-only intern arrays become
// flat sections of int32 ids, aliasing between id slices (SCC closure
// sharing, chain/TCB copy-on-write) is preserved through a shared id
// pool per table, and strings load zero-copy as views into the mapped
// file. Only the hash indexes (hostID, zoneID, chainIDs) are rebuilt on
// load — linear in table size, no transport traffic, no replay.
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

const (
	hostChainNone  = -1 // no chain attached
	hostChainEmpty = -2 // attached chain is the empty chain
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
	// The append-only intern tables and the copy-on-write zoneadj and
	// chaintcb build every entry on its own backing array; only an SCC's
	// members share one closure.
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
	snapshot.WriteDistinctIDTable(w, chainTCB)
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

// OpenSnapshot opens a snapshot file (memory-mapped where possible) and
// reconstructs the builder it was written from. The returned builder
// owns the file for the life of the process — hot arrays are views into
// the mapping, so the mapping is never released.
func OpenSnapshot(path string) (*Builder, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	b, err := LoadSnapshot(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

// ReadSnapshot reconstructs a builder from a snapshot on any io.Reader —
// the pure-portability fallback path, behaviorally identical to
// OpenSnapshot minus the shared mapping.
func ReadSnapshot(r io.Reader) (*Builder, error) {
	f, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return LoadSnapshot(f)
}

// LoadSnapshot reconstructs a builder from an opened snapshot file. Hash
// indexes are rebuilt (linear in table sizes); everything else loads as
// views over the file's sections. The store keeps a reference to f, so
// callers must not Close it while the builder or any of its graphs live.
func LoadSnapshot(f *snapshot.File) (*Builder, error) {
	md := snapshot.NewSectionReader(f, "core/meta")
	epoch := md.I64()
	baseEpoch := md.I64()
	journalFloor := md.I64()
	numNames := md.Int()
	nH := md.Int()
	nZ := md.Int()
	nC := md.Int()
	epochHosts := md.Int()
	flags := md.U32()
	if err := md.Err(); err != nil {
		return nil, err
	}

	hd := snapshot.NewSectionReader(f, "core/hosts")
	hosts := hd.Strings()
	zd := snapshot.NewSectionReader(f, "core/zones")
	zones := zd.Strings()
	cd := snapshot.NewSectionReader(f, "core/chains")
	chains := readIDTable(cd)
	nd := snapshot.NewSectionReader(f, "core/zonens")
	zoneNS := readIDTable(nd)
	if err := firstErr(hd, zd, cd, nd); err != nil {
		return nil, err
	}
	if len(zoneNS) != len(zones) {
		return nil, corruptf("core/zonens", "%d entries for %d zones", len(zoneNS), len(zones))
	}
	if nH > len(hosts) || nZ > len(zones) || nC > len(chains) {
		return nil, corruptf("core/meta", "pinned dims exceed table sizes")
	}

	hc := snapshot.NewSectionReader(f, "core/hostchain")
	nHosts := hc.Count(12)
	// hostChainAt is builder-mutable (chains attach in place), so it is
	// copied off the mapping rather than viewed.
	hostChainAt := append([]int64(nil), hc.I64s(nHosts)...)
	hcCids := hc.I32s(nHosts)
	if err := hc.Err(); err != nil {
		return nil, err
	}
	if nHosts != len(hosts) {
		return nil, corruptf("core/hostchain", "%d entries for %d hosts", nHosts, len(hosts))
	}
	// hostChainID is written in place too, as chains attach.
	hostChainID := append([]int32(nil), hcCids...)
	hostChain := make([][]int32, nHosts)
	for h, cid := range hcCids {
		switch {
		case cid == hostChainNone:
		case cid == hostChainEmpty:
			hostChain[h] = []int32{}
		case int(cid) < len(chains) && len(chains[cid]) > 0:
			hostChain[h] = chains[cid]
		default:
			return nil, corruptf("core/hostchain", "host %d references chain %d", h, cid)
		}
	}

	cld := snapshot.NewSectionReader(f, "core/closure")
	closure := readIDTable(cld)
	ad := snapshot.NewSectionReader(f, "core/zoneadj")
	zoneAdj := readIDTable(ad)
	td := snapshot.NewSectionReader(f, "core/chaintcb")
	chainTCB := readIDTable(td)
	sd := snapshot.NewSectionReader(f, "core/chainstamp")
	chainStamp := sd.I64s(sd.Count(8))
	if err := firstErr(cld, ad, td, sd); err != nil {
		return nil, err
	}
	shared := flags&metaShared != 0
	if shared && (len(closure) != nZ || len(zoneAdj) != nZ || len(chainTCB) != nC || len(chainStamp) != nC) {
		return nil, corruptf("core/closure", "graph table dims do not match pinned dims")
	}

	bd := snapshot.NewSectionReader(f, "core/base")
	nBase := bd.Count(4)
	baseCids := bd.I32s(nBase)
	bd.Pad8()
	baseNames := bd.Strings()
	if err := bd.Err(); err != nil {
		return nil, err
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
		return nil, err
	}
	if len(verNames) != nVer {
		return nil, corruptf("core/names", "%d names for %d histories", len(verNames), nVer)
	}

	jd := snapshot.NewSectionReader(f, "core/journal")
	nEpochs := jd.Count(12)
	jEpochs := jd.I64s(nEpochs)
	jCounts := jd.I32s(nEpochs)
	jd.Pad8()
	jNames := jd.Strings()
	if err := jd.Err(); err != nil {
		return nil, err
	}

	ud := snapshot.NewSectionReader(f, "core/touched")
	touchedBuf := ud.Strings()

	fd := snapshot.NewSectionReader(f, "core/failed")
	failedNames := fd.Strings()
	failedErrs := fd.Strings()
	if fd.Err() == nil && len(failedErrs) != len(failedNames) {
		return nil, corruptf("core/failed", "%d errors for %d names", len(failedErrs), len(failedNames))
	}

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

	if err := firstErr(ud, fd, fcd, pd, ld); err != nil {
		return nil, err
	}

	// Assemble the store and rebuild the hash indexes.
	st := &store{
		hostID:       make(map[string]int32, len(hosts)),
		zoneID:       make(map[string]int32, len(zones)),
		hosts:        hosts,
		zones:        zones,
		chains:       chains,
		zoneNS:       zoneNS,
		hostChain:    hostChain,
		hostChainAt:  hostChainAt,
		hostChainID:  hostChainID,
		base:         make(map[string]int32, nBase),
		baseEpoch:    baseEpoch,
		names:        make(map[string]nameVers, nVer),
		chainNames:   make([][]string, len(chains)),
		touched:      make(map[int64][]string, nEpochs),
		journalFloor: journalFloor,
		snap:         f,
	}
	for i, h := range hosts {
		st.hostID[h] = int32(i)
	}
	for i, z := range zones {
		st.zoneID[z] = int32(i)
	}
	addChainName := func(cid int32, name string) error {
		if int(cid) >= len(chains) || cid < 0 {
			return corruptf("core/base", "name %q references chain %d of %d", name, cid, len(chains))
		}
		st.chainNames[cid] = append(st.chainNames[cid], name)
		return nil
	}
	for i, n := range baseNames {
		st.base[n] = baseCids[i]
		if err := addChainName(baseCids[i], n); err != nil {
			return nil, err
		}
	}
	versionedPresent := 0
	vp := 0
	for i, n := range verNames {
		cnt := int(verCounts[i])
		if cnt < 1 || vp+cnt > verTotal {
			return nil, corruptf("core/names", "history of %q overruns the version pool", n)
		}
		readVer := func(j int) nameVer {
			rec := verPool[16*j:]
			return nameVer{
				epoch:   int64(binary.LittleEndian.Uint64(rec)),
				cid:     int32(binary.LittleEndian.Uint32(rec[8:])),
				present: binary.LittleEndian.Uint32(rec[12:]) != 0,
			}
		}
		vs := nameVers{v0: readVer(vp)}
		if cnt > 1 {
			more := make([]nameVer, cnt-1)
			for j := 1; j < cnt; j++ {
				more[j-1] = readVer(vp + j)
			}
			vs.more = &more
		}
		vp += cnt
		st.names[n] = vs
		lv := vs.latest()
		if lv.present {
			versionedPresent++
		}
		if err := addChainName(vs.v0.cid, n); err != nil && vs.v0.present {
			return nil, err
		}
		if vs.more != nil {
			for _, v := range *vs.more {
				if v.present {
					if err := addChainName(v.cid, n); err != nil {
						return nil, err
					}
				}
			}
		}
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

	b := &Builder{
		st:               st,
		epoch:            epoch,
		chainIDs:         make(map[string]int32, len(chains)),
		pending:          make(map[string][]string, nPend),
		failedChain:      make(map[string]int32, nFC),
		failed:           make(map[string]error, len(failedNames)),
		versionedPresent: versionedPresent,
		touched:          touchedBuf,
		shared:           shared,
		epochHosts:       epochHosts,
		lateAttached:     make(map[int32]struct{}, len(lateIDs)),
	}
	key := make([]byte, 0, 64)
	for cid, ids := range chains {
		key = key[:0]
		for _, id := range ids {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		b.chainIDs[string(key)] = int32(cid)
	}
	for i, n := range failedNames {
		b.failed[n] = errors.New(failedErrs[i])
	}
	for i, n := range fcNames {
		b.failedChain[n] = fcCids[i]
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

	if flags&metaHasPrev != 0 {
		if shared {
			b.prev = &Graph{
				st:         st,
				epoch:      epoch,
				hosts:      hosts[:nH:nH],
				zones:      zones[:nZ:nZ],
				chains:     chains[:nC:nC],
				zoneNS:     zoneNS[:nZ:nZ],
				numNames:   numNames,
				closure:    closure,
				zoneAdj:    zoneAdj,
				chainTCB:   chainTCB,
				chainStamp: chainStamp[:nC:nC], // a view of the file: never appended to in place
			}
		} else {
			// The last committed epoch predates any live-store content:
			// reconstruct the builder's empty-store graph.
			b.prev = emptyGraph(epoch)
		}
	}
	return b, nil
}

// LastGraph returns the graph of the last committed epoch — after a
// load, the graph the snapshot was taken at — or nil when no epoch has
// been finished. It is the same immutable value FinishEpoch returned.
func (b *Builder) LastGraph() *Graph { return b.prev }

// Epoch reports the builder's current committed epoch count.
func (b *Builder) Epoch() int64 { return b.epoch }

// --- encoding helpers ---

// The id-table codec lives in package snapshot (WriteIDTable /
// ReadIDTable) so remapping readers — the fleet coordinator — can decode
// these sections without reconstructing a store; a thin wrapper keeps
// the call sites here short.
func readIDTable(d *snapshot.SectionReader) [][]int32 { return snapshot.ReadIDTable(d) }

// corruptf wraps snapshot.ErrCorrupt with section context: the file's
// checksums passed but its contents are not a consistent store.
func corruptf(sec, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", snapshot.ErrCorrupt, sec, fmt.Sprintf(format, args...))
}

func firstErr(ds ...*snapshot.SectionReader) error {
	for _, d := range ds {
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
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
