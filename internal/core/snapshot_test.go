package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnstrust/internal/snapshot"
)

// OpenSnapshot maps the snapshot file at path and loads the builder
// it was written from, as a restoring engine does.
func OpenSnapshot(path string) (*Builder, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	b, err := LoadSnapshot(f)
	if err != nil {
		f.Close()
	}
	return b, err
}

// ReadSnapshot loads a builder from a snapshot read off r.
func ReadSnapshot(r io.Reader) (*Builder, error) {
	f, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return LoadSnapshot(f)
}

// buildEpochs feeds a synthetic corpus across several epochs with some
// churn (failures, re-completions, a pending chain) so every store and
// builder table is populated.
func buildEpochs(total, epochs int) *Builder {
	b := NewBuilder(total)
	per := total / epochs
	for e := 0; e < epochs; e++ {
		lo, hi := e*per, (e+1)*per
		if e == epochs-1 {
			hi = total
		}
		FeedSyntheticRange(b, lo, hi, total)
		if e == 1 {
			// Churn: one name fails, one re-chains, one fails then heals.
			b.Fail("www0.dom0.tld0", errors.New("walk timed out"))
			b.Complete("www1.dom0.tld0", []string{"tld1", "dom1.tld1"})
			b.Fail("www2.dom0.tld0", errors.New("transient"))
			b.Complete("www2.dom0.tld0", []string{"tld0", "dom0.tld0"})
		}
		if e == 2 {
			b.Complete("www0.dom0.tld0", []string{"tld0", "dom0.tld0"})
		}
		b.FinishEpoch()
	}
	// A chain for a key that is not an interned host stays pending; a
	// failure with a resolved chain lands in failedChain.
	b.ObserveChain("orphan.example", []string{"tld0", "dom0.tld0"})
	b.ObserveChain("doomed.example", []string{"tld1", "dom1.tld1"})
	b.Fail("doomed.example", errors.New("no address"))
	return b
}

// compareGraphs asserts got answers every read API identically to want.
func compareGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch = %d, want %d", got.Epoch(), want.Epoch())
	}
	if got.NumNames() != want.NumNames() || got.NumZones() != want.NumZones() ||
		got.NumHosts() != want.NumHosts() || got.NumChains() != want.NumChains() {
		t.Fatalf("dims = (%d names, %d zones, %d hosts, %d chains), want (%d, %d, %d, %d)",
			got.NumNames(), got.NumZones(), got.NumHosts(), got.NumChains(),
			want.NumNames(), want.NumZones(), want.NumHosts(), want.NumChains())
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatal("Names() differ")
	}
	if !reflect.DeepEqual(got.Hosts(), want.Hosts()) || !reflect.DeepEqual(got.Zones(), want.Zones()) {
		t.Fatal("intern tables differ")
	}
	for z := range want.zones {
		zid := int32(z)
		if !int32sEqual(got.ZoneNSIDs(zid), want.ZoneNSIDs(zid)) {
			t.Fatalf("zoneNS[%d] = %v, want %v", z, got.ZoneNSIDs(zid), want.ZoneNSIDs(zid))
		}
		if !int32sEqual(got.closure[z], want.closure[z]) {
			t.Fatalf("closure[%d] differs", z)
		}
		if !int32sEqual(got.zoneAdj[z], want.zoneAdj[z]) {
			t.Fatalf("zoneAdj[%d] differs", z)
		}
	}
	for c := range want.chains {
		cid := int32(c)
		if !int32sEqual(got.ChainZoneIDs(cid), want.ChainZoneIDs(cid)) {
			t.Fatalf("chain %d differs", c)
		}
		if !int32sEqual(got.ChainTCBIDs(cid), want.ChainTCBIDs(cid)) {
			t.Fatalf("chainTCB[%d] differs", c)
		}
		if got.ChainStamp(cid) != want.ChainStamp(cid) {
			t.Fatalf("chainStamp[%d] = %d, want %d", c, got.ChainStamp(cid), want.ChainStamp(cid))
		}
		if !reflect.DeepEqual(got.NamesOnChain(cid), want.NamesOnChain(cid)) {
			t.Fatalf("NamesOnChain(%d) differs", c)
		}
	}
	for h := range want.hosts {
		hid := int32(h)
		if !int32sEqual(got.HostChainIDs(hid), want.HostChainIDs(hid)) {
			t.Fatalf("hostChain[%d] differs", h)
		}
		if (got.HostChainIDs(hid) == nil) != (want.HostChainIDs(hid) == nil) {
			t.Fatalf("hostChain[%d] nilness differs", h)
		}
	}
	for _, name := range want.Names() {
		wt, _ := want.TCBIDs(name)
		gt, err := got.TCBIDs(name)
		if err != nil || !int32sEqual(gt, wt) {
			t.Fatalf("TCB(%q) differs (%v)", name, err)
		}
	}
	for e := int64(0); e <= want.Epoch(); e++ {
		if !reflect.DeepEqual(got.NamesTouchedSince(e), want.NamesTouchedSince(e)) {
			t.Fatalf("NamesTouchedSince(%d) differs", e)
		}
		if got.JournalComplete(e) != want.JournalComplete(e) {
			t.Fatalf("JournalComplete(%d) differs", e)
		}
		if !reflect.DeepEqual(got.ChainsChangedSince(e), want.ChainsChangedSince(e)) {
			t.Fatalf("ChainsChangedSince(%d) differs", e)
		}
	}
}

// compareBuilders asserts the resumable builder state survived.
func compareBuilders(t *testing.T, want, got *Builder) {
	t.Helper()
	if got.epoch != want.epoch || got.shared != want.shared ||
		got.epochHosts != want.epochHosts || got.versionedPresent != want.versionedPresent {
		t.Fatalf("builder scalars differ: got (%d %v %d %d), want (%d %v %d %d)",
			got.epoch, got.shared, got.epochHosts, got.versionedPresent,
			want.epoch, want.shared, want.epochHosts, want.versionedPresent)
	}
	if len(got.failed) != len(want.failed) {
		t.Fatalf("failed count = %d, want %d", len(got.failed), len(want.failed))
	}
	for n, err := range want.failed {
		if g, ok := got.failed[n]; !ok || g.Error() != err.Error() {
			t.Fatalf("failed[%q] = %v, want %v", n, got.failed[n], err)
		}
	}
	if !reflect.DeepEqual(got.failedChain, want.failedChain) {
		t.Fatalf("failedChain differs: %v vs %v", got.failedChain, want.failedChain)
	}
	if !reflect.DeepEqual(got.pending, want.pending) {
		t.Fatalf("pending differs: %v vs %v", got.pending, want.pending)
	}
	// A loaded builder indexes its chains at the first intern; build
	// both indexes now so they are compared whole.
	for _, b := range []*Builder{got, want} {
		if b.chainIDs == nil {
			b.indexChainsLocked()
		}
	}
	if !reflect.DeepEqual(got.chainIDs, want.chainIDs) {
		t.Fatal("rebuilt chainIDs index differs")
	}
	if !reflect.DeepEqual(got.lateAttached, want.lateAttached) {
		t.Fatal("lateAttached differs")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := buildEpochs(500, 3)
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Determinism: identical state serializes to identical bytes.
	var buf2 bytes.Buffer
	if err := b.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}

	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareBuilders(t, b, lb)
	compareGraphs(t, b.LastGraph(), lb.LastGraph())

	// A loaded builder re-serializes to the exact original bytes.
	var buf3 bytes.Buffer
	if err := lb.WriteSnapshot(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

func TestSnapshotOpenMmap(t *testing.T) {
	b := buildEpochs(300, 2)
	path := filepath.Join(t.TempDir(), "core.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lb, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	compareGraphs(t, b.LastGraph(), lb.LastGraph())
}

// TestSnapshotContinueBuilding is the property that makes restarts real:
// a restored builder absorbing the same events as the original produces
// equivalent next epochs — including journal diffs and copy-on-write
// chain stamps spanning the restart boundary. The restored builder's
// epochs run the incremental closure pass off tables read from the file,
// with nothing rebuilt at open, and must match the whole-graph pass
// across a late attach whose zone was published before the snapshot.
func TestSnapshotContinueBuilding(t *testing.T) {
	const total = 600
	orig := buildEpochs(total, 3)
	// A zone published with an NS host whose address chain is still
	// unknown, and a second zone depending on the first.
	orig.ObserveZone("lag.tld0", []string{"ns.lag.tld0", "ns1.dom0.tld0"})
	orig.ObserveChain("ns.up.tld1", []string{"tld0", "lag.tld0"})
	orig.ObserveZone("up.tld1", []string{"ns.up.tld1"})
	orig.Complete("www.lag.tld0", []string{"tld0", "lag.tld0"})
	orig.Complete("www.up.tld1", []string{"tld1", "up.tld1"})
	finishChecked(t, orig)

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	saved := restored.LastGraph()
	before := saved.Epoch()
	for _, b := range []*Builder{orig, restored} {
		// First epoch after the restart: the late attach, new names, churn.
		b.ObserveChain("ns.lag.tld0", []string{"tld2", "dom2.tld2"})
		FeedSyntheticRange(b, total, total+100, total+200)
		b.Fail("www5.dom0.tld0", errors.New("late failure"))
		b.ObserveZone("dom0.tld0", []string{"late.example"}) // dup zone: ignored
		g := finishChecked(t, b)
		for _, apex := range []string{"lag.tld0", "up.tld1"} {
			z, _ := g.zoneIDOf(apex)
			if int32sEqual(g.closure[z], saved.closure[z]) {
				t.Fatalf("closure of %s did not grow with the late attach", apex)
			}
		}
		b.TakeLateAttached()
		// Then small epochs with nothing late.
		FeedSyntheticRange(b, total+100, total+150, total+200)
		finishChecked(t, b)
		b.Fail("www.up.tld1", errors.New("later failure"))
		FeedSyntheticRange(b, total+150, total+200, total+200)
		finishChecked(t, b)
	}
	g1, g2 := orig.LastGraph(), restored.LastGraph()
	compareGraphs(t, g1, g2)
	compareBuilders(t, orig, restored)

	// The post-restart epochs diff incrementally against the restored one.
	if !g2.JournalComplete(before) {
		t.Fatal("journal broken across the restart boundary")
	}
	if got := g2.NamesTouchedSince(before); len(got) == 0 {
		t.Fatal("no touched names across restart epoch")
	}
	if !reflect.DeepEqual(g2.NamesTouchedSince(before), g1.NamesTouchedSince(before)) {
		t.Fatal("touched journals diverge after restart")
	}
	// Unchanged chains keep their pre-restart stamps (copy-on-write held).
	var kept bool
	for c := 0; c < g2.NumChains(); c++ {
		if g2.ChainStamp(int32(c)) <= before && g2.ChainStamp(int32(c)) == g1.ChainStamp(int32(c)) {
			kept = true
		}
	}
	if !kept {
		t.Fatal("no chain kept its pre-restart stamp")
	}
}

func TestSnapshotEmptyBuilder(t *testing.T) {
	b := NewBuilder(0)
	b.FinishEpoch() // the Monitor's pre-crawl empty generation
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// An empty-store FinishEpoch does not publish a live-store graph, so
	// the restored builder faithfully has none either.
	if lb.Epoch() != 1 || lb.LastGraph() != b.LastGraph() && (lb.LastGraph() == nil) != (b.LastGraph() == nil) {
		t.Fatalf("empty builder restored wrong: epoch %d, graph %v", lb.Epoch(), lb.LastGraph())
	}
	FeedSynthetic(lb, 100)
	if g := lb.FinishEpoch(); g.NumNames() != 100 {
		t.Fatalf("post-restore epoch has %d names", g.NumNames())
	}
}

func TestSnapshotLargeIDs(t *testing.T) {
	// Exercise id widths beyond a byte so the packed chain keys and int32
	// views cover multi-byte values.
	b := NewBuilder(0)
	for i := 0; i < 300; i++ {
		z := fmt.Sprintf("zone%d", i)
		b.ObserveZone(z, []string{"ns." + z})
		b.ObserveChain("ns."+z, []string{z})
		b.Complete("name."+z, []string{z})
	}
	b.FinishEpoch()
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareBuilders(t, b, lb)
	compareGraphs(t, b.LastGraph(), lb.LastGraph())
}
