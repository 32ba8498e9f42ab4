package snapshot

import "math"

// Id tables are the remap-friendly section encoding shared by the epoch
// store (core/chains, core/zonens, graph closures) and any reader that
// wants the raw id slices without reconstructing a store — the fleet
// coordinator decodes shard sections with ReadIDTable and remaps the
// ids into its own unioned intern space.
//
// Layout: table count, pool length, then (offset, length) entry pairs
// over one shared int32 pool. Entries that alias the same backing array
// in memory share one pool run, so aliasing structure (SCC closure
// sharing, per-chain TCB copy-on-write) survives the round trip.

const nilOff = math.MaxUint32

// WriteIDTable emits a table of id slices over one shared pool,
// deduplicating by backing identity. The pool is never materialised:
// offsets are assigned in order of first appearance, so a second pass
// writes each entry whose offset is the pool's running end straight from
// its own backing array.
func WriteIDTable(w *Writer, table [][]int32) {
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

// ReadIDTable decodes a table written by WriteIDTable, rebuilding the
// aliasing structure: entries sharing a pool offset share one view.
func ReadIDTable(d *SectionReader) [][]int32 {
	n := d.Count(8)
	poolLen := d.Count(4)
	ents := d.I32s(2 * n)
	pool := d.I32s(poolLen)
	d.Pad8()
	if d.Err() != nil {
		return nil
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
