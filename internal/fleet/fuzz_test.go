package fleet_test

import (
	"errors"
	"slices"
	"testing"

	"dnstrust/internal/crawler"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/snapshot/snapshottest"
)

// epochSections are the sections DecodeEpoch reads, in the order the
// fuzz input frames them.
var epochSections = []string{
	"crawler/meta", snapshot.ShardMetaSection, "core/meta", "core/hosts", "core/zones",
	"core/chains", "core/zonens", "core/hostchain", "core/base", "core/names",
	"core/failed", crawler.BannerSection,
}

// frameSections frames a shard snapshot's epochSections as fuzz input.
func frameSections(f *snapshot.File) []byte { return snapshottest.Frame(f, epochSections) }

// sealSections seals framed epochSections into a snapshot with valid
// checksums.
func sealSections(t *testing.T, data []byte) *snapshot.File {
	return snapshottest.Seal(t, epochSections, data)
}

// replaceBase returns f's sections framed with core/base re-encoded to
// hold names and cids.
func replaceBase(t testing.TB, f *snapshot.File, names []string, cids []int32) []byte {
	return frameSections(snapshottest.Rewrite(t, f, epochSections, "core/base", func(w *snapshot.Writer) {
		w.U64(uint64(len(names)))
		w.I32s(cids)
		w.Pad8()
		if err := snapshot.WriteStringTable(w, names); err != nil {
			t.Fatal(err)
		}
	}))
}

// shardFile builds a small shard whose snapshot holds base and
// versioned names, a failure and banners, and returns the snapshot
// with its base table and one versioned name.
func shardFile(t testing.TB) (f *snapshot.File, baseNames []string, baseCids []int32, verName string) {
	s := newHandShard("s0")
	s.sites(0, 4)
	s.commit()
	s.sites(4, 6)
	s.b.Fail("www.site1.com", errors.New("lame delegation"))
	s.banner["ns.hoster.net"] = "8.2.4"
	s.commit()
	f = s.file(t)
	bd := snapshot.NewSectionReader(f, "core/base")
	baseCids = bd.I32s(bd.Count(4))
	bd.Pad8()
	baseNames = bd.Strings()
	if err := bd.Err(); err != nil || len(baseNames) < 2 {
		t.Fatalf("shard snapshot base table: %d names, %v", len(baseNames), err)
	}
	return f, baseNames, baseCids, "www.site4.com"
}

// disordered returns the shard's sections framed twice over: once with
// two base names swapped, once with a versioned name also in the base
// table.
func disordered(t testing.TB, f *snapshot.File, baseNames []string, baseCids []int32, verName string) (swapped, both []byte) {
	names := slices.Clone(baseNames)
	names[0], names[1] = names[1], names[0]
	swapped = replaceBase(t, f, names, baseCids)

	i, _ := slices.BinarySearch(baseNames, verName)
	names = slices.Insert(slices.Clone(baseNames), i, verName)
	cids := slices.Insert(slices.Clone(baseCids), i, baseCids[0])
	both = replaceBase(t, f, names, cids)
	return swapped, both
}

// TestDecodeEpochRejectsDisorder: the decoder merges core/base and
// core/names on the promise that each is sorted and that they are
// disjoint, so input breaking either promise is corrupt, not misread.
func TestDecodeEpochRejectsDisorder(t *testing.T) {
	f, baseNames, baseCids, verName := shardFile(t)
	swapped, both := disordered(t, f, baseNames, baseCids, verName)
	if _, err := fleet.DecodeEpoch(sealSections(t, frameSections(f))); err != nil {
		t.Fatalf("re-sealed shard snapshot: %v", err)
	}
	for what, data := range map[string][]byte{"swapped base names": swapped, "a name in both tables": both} {
		if _, err := fleet.DecodeEpoch(sealSections(t, data)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: DecodeEpoch error %v, want snapshot.ErrCorrupt", what, err)
		}
	}
}

// FuzzDecodeEpoch feeds the decoder hostile section contents behind
// valid checksums. No input may panic; a rejected one must wrap
// snapshot.ErrCorrupt; an accepted one must list its names strictly
// ascending with every id in range, since the merge indexes its remap
// tables with them unchecked.
func FuzzDecodeEpoch(f *testing.F) {
	sf, baseNames, baseCids, verName := shardFile(f)
	valid := frameSections(sf)
	swapped, both := disordered(f, sf, baseNames, baseCids, verName)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(swapped)
	f.Add(both)
	f.Fuzz(func(t *testing.T, data []byte) {
		ep, err := fleet.DecodeEpoch(sealSections(t, data))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("error %v does not wrap snapshot.ErrCorrupt", err)
			}
			return
		}
		for i, nc := range ep.Names {
			if i > 0 && ep.Names[i-1].Name >= nc.Name {
				t.Fatalf("names %q, %q not strictly ascending", ep.Names[i-1].Name, nc.Name)
			}
			if nc.Chain < 0 || int(nc.Chain) >= len(ep.Chains) {
				t.Fatalf("name %q: chain %d of %d", nc.Name, nc.Chain, len(ep.Chains))
			}
		}
		for c, zs := range ep.Chains {
			for _, z := range zs {
				if z < 0 || int(z) >= len(ep.Zones) {
					t.Fatalf("chain %d: zone %d of %d", c, z, len(ep.Zones))
				}
			}
		}
		if len(ep.ZoneNS) != len(ep.Zones) {
			t.Fatalf("%d NS sets for %d zones", len(ep.ZoneNS), len(ep.Zones))
		}
		for z, hs := range ep.ZoneNS {
			for _, h := range hs {
				if h < 0 || int(h) >= len(ep.Hosts) {
					t.Fatalf("zone %d: host %d of %d", z, h, len(ep.Hosts))
				}
			}
		}
		if len(ep.HostChain) != len(ep.Hosts) || len(ep.HostAttached) != len(ep.Hosts) {
			t.Fatalf("%d/%d host chains for %d hosts", len(ep.HostChain), len(ep.HostAttached), len(ep.Hosts))
		}
		for h, c := range ep.HostChain {
			if c < -2 || int(c) >= len(ep.Chains) {
				t.Fatalf("host %d: chain %d of %d", h, c, len(ep.Chains))
			}
		}
		if len(ep.Banners) > len(ep.Hosts) {
			t.Fatalf("%d banners for %d hosts", len(ep.Banners), len(ep.Hosts))
		}
	})
}
