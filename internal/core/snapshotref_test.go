package core

import (
	"errors"
	"sort"

	"dnstrust/internal/snapshot"
)

// This file keeps the builder's snapshot encoder as it stood before
// writes kept state between calls (the sorted base order, the host →
// chain-id column, hash-free id tables): it re-sorts every map-backed
// table, recovers host chain ids from slice addresses, and dedups every
// id table through a map. TestSnapshotWriteMatchesReference holds
// Builder.WriteSections to these bytes after every kind of change.

// writeSectionsReference is the reference for Builder.WriteSections.
func writeSectionsReference(b *Builder, w *snapshot.Writer) error {
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
	w.Begin("core/chains")
	writeIDTableReference(w, st.chains)
	w.Begin("core/zonens")
	writeIDTableReference(w, st.zoneNS)

	w.Begin("core/hostchain")
	w.U64(uint64(len(st.hostChain)))
	w.I64s(st.hostChainAt)
	rev := make(map[*int32]int32, len(st.chains))
	for cid, s := range st.chains {
		if len(s) > 0 {
			rev[&s[0]] = int32(cid)
		}
	}
	cids := make([]int32, len(st.hostChain))
	for h, s := range st.hostChain {
		switch {
		case s == nil:
			cids[h] = HostChainNone
		case len(s) == 0:
			cids[h] = HostChainEmpty
		default:
			cid, ok := rev[&s[0]]
			if !ok {
				return errors.New("core: snapshot: host chain does not alias the chain table")
			}
			cids[h] = cid
		}
	}
	w.I32s(cids)
	w.Pad8()

	w.Begin("core/closure")
	writeIDTableReference(w, closure)
	w.Begin("core/zoneadj")
	writeIDTableReference(w, zoneAdj)
	w.Begin("core/chaintcb")
	writeIDTableReference(w, chainTCB)
	w.Begin("core/chainstamp")
	w.U64(uint64(len(chainStamp)))
	w.I64s(chainStamp)

	// Map-backed sections are written in sorted key order so identical
	// state always serializes to identical bytes.
	w.Begin("core/base")
	baseNames := sortedKeys(st.base)
	w.U64(uint64(len(baseNames)))
	for _, n := range baseNames {
		w.I32(st.base[n])
	}
	w.Pad8()
	if err := snapshot.WriteStringTable(w, baseNames); err != nil {
		return err
	}

	w.Begin("core/names")
	verNames := sortedKeys(st.names)
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
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
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

// writeIDTableReference is the reference for snapshot.WriteIDTable and
// snapshot.WriteDistinctIDTable: one map of run identities per table.
func writeIDTableReference(w *snapshot.Writer, table [][]int32) {
	type sliceKey struct {
		p *int32
		n int
	}
	offs := make(map[sliceKey]uint32, len(table))
	var poolLen uint32
	ents := make([]int32, 0, 2*len(table))
	for _, s := range table {
		switch {
		case s == nil:
			ents = append(ents, -1, 0) // reads back as nilOff
		case len(s) == 0:
			ents = append(ents, 0, 0)
		default:
			k := sliceKey{&s[0], len(s)}
			o, ok := offs[k]
			if !ok {
				o = poolLen
				offs[k] = o
				poolLen += uint32(len(s))
			}
			ents = append(ents, int32(o), int32(len(s)))
		}
	}
	w.U64(uint64(len(table)))
	w.U64(uint64(poolLen))
	w.I32s(ents)
	var end uint32
	for i, s := range table {
		if len(s) > 0 && uint32(ents[2*i]) == end {
			w.I32s(s)
			end += uint32(len(s))
		}
	}
	w.Pad8()
}
