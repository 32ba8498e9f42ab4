package snapshot

import (
	"fmt"
	"math"
	"unsafe"
)

// Id tables are the section encoding of the epoch store's tables of id
// slices (core/chains, core/zonens and the last graph's closures,
// adjacency and TCBs).
//
// Layout: table count, pool length, then (offset, length) entry pairs
// over one shared int32 pool. Entries that alias the same backing array
// in memory share one pool run, so aliasing structure (closures and TCBs
// interned by content, each shared by every zone and chain that has it)
// survives the round trip.

const nilOff = math.MaxUint32

// WriteIDTable emits a table of id slices over one shared pool,
// deduplicating by backing identity: entries with the same first
// element address and length share the run of the first of them. The
// pool is never materialised: offsets are assigned in order of first
// appearance, so a second pass writes each entry whose offset is the
// pool's running end straight from its own backing array. Identity is
// looked up in a flat open-addressing index of entry numbers, not a map.
func WriteIDTable(w *Writer, table [][]int32) {
	ents := make([]int32, 2*len(table))
	var poolLen uint32
	idx := newRunIndex(len(table))
	for i, s := range table {
		o, l := entry(s, poolLen)
		if l > 0 {
			if f := idx.first(table, i); f < i {
				o = uint32(ents[2*f])
			} else {
				poolLen += l
			}
		}
		ents[2*i], ents[2*i+1] = int32(o), int32(l)
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

// WriteDistinctIDTable emits a table in which no two non-empty entries
// share a backing array, such as an append-only intern table or a
// copy-on-write table whose every entry is built on its own: the same
// bytes WriteIDTable writes for it, with each entry's offset the running
// pool length, so nothing is looked up or kept.
func WriteDistinctIDTable(w *Writer, table [][]int32) {
	var poolLen uint64
	for _, s := range table {
		poolLen += uint64(len(s))
	}
	w.U64(uint64(len(table)))
	w.U64(poolLen)
	var end uint32
	for rest := table; len(rest) > 0; {
		chunk := rest[:min(len(rest), bufSize/8)]
		rest = rest[len(chunk):]
		p := w.grow(8 * len(chunk))
		if p == nil {
			return
		}
		for i, s := range chunk {
			o, l := entry(s, end)
			le.PutUint32(p[8*i:], o)
			le.PutUint32(p[8*i+4:], l)
			end += l
		}
	}
	for _, s := range table {
		w.I32s(s)
	}
	w.Pad8()
}

// ReadIDTable decodes a table written by WriteIDTable, rebuilding the
// aliasing structure: entries sharing a pool offset share one view.
// Every id must lie in [0, bound), the size of the table the ids index;
// the pool is scanned once, however many entries alias a run.
func ReadIDTable(d *SectionReader, bound int) [][]int32 {
	n := d.Count(8)
	poolLen := d.Count(4)
	ents := d.I32s(2 * n)
	pool := d.I32s(poolLen)
	d.Pad8()
	if d.Err() != nil {
		return nil
	}
	for _, id := range pool {
		if uint(uint32(id)) >= uint(bound) { // one compare: a negative id is huge
			d.Fail(fmt.Sprintf("id %d not below %d", id, bound))
			return nil
		}
	}
	out := make([][]int32, n)
	for i := range out {
		o, l := uint32(ents[2*i]), uint32(ents[2*i+1])
		switch {
		case o == nilOff:
		case l == 0:
			out[i] = []int32{}
		case uint64(o)+uint64(l) <= uint64(poolLen):
			out[i] = pool[o : o+l : o+l]
		default:
			d.Fail("id slice outside pool")
			return nil
		}
	}
	return out
}

// entry is the (offset, length) pair of a table entry whose run, if it
// has one, starts at off: nil reads back as nil, empty as empty.
func entry(s []int32, off uint32) (uint32, uint32) {
	switch {
	case s == nil:
		return nilOff, 0
	case len(s) == 0:
		return 0, 0
	}
	return off, uint32(len(s))
}

// runIndex finds the first entry of a table holding a given run: linear
// probing over a power-of-two array, at most half full, of entry
// numbers plus one (zero marks a free slot), hashed by the run's first
// element address.
type runIndex struct {
	slots []int32
	shift uint // 64 - log2(len(slots)): a hash's top bits pick the slot
}

func newRunIndex(n int) runIndex {
	shift := uint(60)
	for 1<<(64-shift) < 2*n {
		shift--
	}
	return runIndex{slots: make([]int32, 1<<(64-shift)), shift: shift}
}

// first returns the number of the first entry of table with the same
// run (first element address and length) as the non-empty table[i],
// recording i when no earlier entry has it. Addresses are only
// compared: the table keeps every run alive.
func (x runIndex) first(table [][]int32, i int) int {
	s := table[i]
	mask := len(x.slots) - 1
	h := uint64(uintptr(unsafe.Pointer(&s[0]))>>2) * 0x9E3779B97F4A7C15
	for j := int(h >> x.shift); ; j = (j + 1) & mask {
		k := int(x.slots[j]) - 1
		if k < 0 {
			x.slots[j] = int32(i + 1)
			return i
		}
		if t := table[k]; &t[0] == &s[0] && len(t) == len(s) {
			return k
		}
	}
}
