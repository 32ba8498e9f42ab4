package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"dnstrust/internal/snapshot"
	"dnstrust/internal/snapshot/snapshottest"
)

// snapshotOf writes b's snapshot and reads it back.
func snapshotOf(t testing.TB, b *Builder) *snapshot.File {
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// corruptRow is a snapshot with valid checksums and one defect in the
// named section.
type corruptRow struct {
	what, sec string
	file      *snapshot.File
}

// corruptRows re-seals f, the snapshot of b, a builder whose store has
// base and versioned names, once per defect restore must reject.
func corruptRows(t testing.TB, b *Builder, f *snapshot.File) []corruptRow {
	hosts, zones := len(b.st.hosts), len(b.st.zones)
	baseNames, verNames := sortedKeys(b.st.base), sortedKeys(b.st.names)
	if len(baseNames) < 2 || len(verNames) == 0 {
		t.Fatalf("store has %d base and %d versioned names", len(baseNames), len(verNames))
	}
	baseCids := make([]int32, len(baseNames))
	for i, n := range baseNames {
		baseCids[i] = b.st.base[n]
	}
	// setI32 rewrites the int32 at byte off of sec's payload.
	setI32 := func(sec string, off int, v int32) *snapshot.File {
		return snapshottest.Rewrite(t, f, coreSections, sec, func(w *snapshot.Writer) {
			p := bytes.Clone(f.Section(sec))
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			w.Write(p)
		})
	}
	// firstID is the byte offset of an id table's first pool id: past
	// the count, the pool length and the (offset, length) pairs.
	firstID := func(sec string) int {
		return 16 + 8*int(binary.LittleEndian.Uint64(f.Section(sec)))
	}
	base := func(names []string, cids []int32) *snapshot.File {
		return snapshottest.Rewrite(t, f, coreSections, "core/base", func(w *snapshot.Writer) {
			w.U64(uint64(len(names)))
			w.I32s(cids)
			w.Pad8()
			if err := snapshot.WriteStringTable(w, names); err != nil {
				t.Fatal(err)
			}
		})
	}
	rootZone := snapshottest.Rewrite(t, f, coreSections, "core/zones", func(w *snapshot.Writer) {
		if err := snapshot.WriteStringTable(w, append([]string{""}, b.st.zones[1:]...)); err != nil {
			t.Fatal(err)
		}
	})
	swapped := slices.Clone(baseNames)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	i, _ := slices.BinarySearch(baseNames, verNames[0])
	both := slices.Insert(slices.Clone(baseNames), i, verNames[0])
	bothCids := slices.Insert(slices.Clone(baseCids), i, baseCids[0])

	return []corruptRow{
		{"host chain id -3", "core/hostchain", setI32("core/hostchain", 8+8*hosts, -3)},
		{"chain zone id past the zone table", "core/chains", setI32("core/chains", firstID("core/chains"), int32(zones))},
		{"zone NS host id past the host table", "core/zonens", setI32("core/zonens", firstID("core/zonens"), int32(hosts))},
		{"chain TCB host id past the host table", "core/chaintcb", setI32("core/chaintcb", firstID("core/chaintcb"), 100000)},
		{"the root as an interned zone", "core/zones", rootZone},
		{"base names out of order", "core/base", base(swapped, baseCids)},
		{"a name in both base and names", "core/names", base(both, bothCids)},
	}
}

// TestLoadSnapshotRejectsCorrupt: a snapshot whose checksums pass but
// whose contents are not a consistent store fails to load with an error
// wrapping snapshot.ErrCorrupt that names the section, instead of
// loading a store that panics when read.
func TestLoadSnapshotRejectsCorrupt(t *testing.T) {
	b := buildEpochs(300, 3)
	f := snapshotOf(t, b)
	if _, err := LoadSnapshot(snapshottest.Seal(t, coreSections, snapshottest.Frame(f, coreSections))); err != nil {
		t.Fatalf("re-sealed snapshot: %v", err)
	}
	for _, row := range corruptRows(t, b, f) {
		_, err := LoadSnapshot(row.file)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), row.sec) {
			t.Errorf("%s: LoadSnapshot error %v, want snapshot.ErrCorrupt naming %s", row.what, err, row.sec)
		}
	}
}

// FuzzLoadSnapshot feeds restore hostile section contents behind valid
// checksums. A rejected input must wrap snapshot.ErrCorrupt; an
// accepted one must intern one of its chains again (building the chain
// index the load leaves to the first intern) and answer Names, TCB for
// every name, and NamesOnChain and Digraph.Fill for every chain of its
// last graph without a panic.
func FuzzLoadSnapshot(f *testing.F) {
	b := buildEpochs(60, 3)
	sf := snapshotOf(f, b)
	f.Add(snapshottest.Frame(sf, coreSections))
	for _, row := range corruptRows(f, b, sf) {
		f.Add(snapshottest.Frame(row.file, coreSections))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadSnapshot(snapshottest.Seal(t, coreSections, data))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error %v does not wrap snapshot.ErrCorrupt", err)
			}
			return
		}
		var ids []int32
		if n := len(b.st.chains); n > 0 {
			ids = b.st.chains[n-1]
		}
		if cid := b.InternChain(ids); !int32sEqual(b.st.chains[cid], ids) {
			t.Fatalf("chain %v interned as chain %d, %v", ids, cid, b.st.chains[cid])
		}
		g := b.LastGraph()
		if g == nil {
			return
		}
		for _, n := range g.Names() {
			g.TCB(n)
		}
		var d Digraph
		for cid := range g.NumChains() {
			g.NamesOnChain(int32(cid))
			d.Fill(g, int32(cid))
		}
	})
}
