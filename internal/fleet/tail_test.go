package fleet_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"
	"weak"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/view"
)

// handShard is a shard store driven by hand: a core.Builder fed the
// events a crawl engine feeds it, committed and exported the way an
// engine commits and exports. It lets a test fail a resolved name,
// attach a host chain late or restart a shard at a chosen round.
type handShard struct {
	name   string
	b      *core.Builder
	gen    int64
	banner map[string]string
}

func newHandShard(name string) *handShard {
	s := &handShard{name: name, b: core.NewBuilder(0), banner: map[string]string{}}
	s.b.FinishEpoch() // an engine's pre-crawl generation 0
	return s
}

// tlds observes the top-level zones and a hosting provider's zone, the
// delegations every site below passes through.
func (s *handShard) tlds() {
	for _, z := range []string{"com", "net", "nic.net"} {
		s.b.ObserveZone(z, []string{"a.nic.net"})
	}
	s.b.ObserveChain("a.nic.net", []string{"net", "nic.net"})
	s.b.ObserveZone("hoster.net", []string{"ns.hoster.net"})
	s.b.ObserveChain("ns.hoster.net", []string{"net", "hoster.net"})
}

// site resolves www.<apex> through a zone served by its own host and
// the hosting provider's, reporting what a crawl of it reports.
func (s *handShard) site(apex string) {
	s.tlds()
	s.b.ObserveZone(apex, []string{"ns." + apex, "ns.hoster.net"})
	s.b.ObserveChain("ns."+apex, []string{"com", apex})
	s.b.Complete("www."+apex, []string{"com", apex})
}

// sites resolves www.site<i>.com for i in [from, to).
func (s *handShard) sites(from, to int) {
	for i := from; i < to; i++ {
		s.site("site" + strconv.Itoa(i) + ".com")
	}
}

// lateZone resolves www.late.com, whose only NS host's address chain is
// not known yet; attachLate supplies it.
func (s *handShard) lateZone() {
	s.tlds()
	s.b.ObserveZone("late.com", []string{"ns.late.net"})
	s.b.Complete("www.late.com", []string{"com", "late.com"})
}

func (s *handShard) attachLate() {
	s.b.ObserveZone("late.net", []string{"ns.hoster.net"})
	s.b.ObserveChain("ns.late.net", []string{"net", "late.net"})
}

func (s *handShard) commit() {
	s.b.FinishEpoch()
	s.gen++
}

// epoch exports the shard and decodes it.
func (s *handShard) epoch(t testing.TB) *fleet.Epoch {
	t.Helper()
	ep, err := fleet.DecodeEpoch(s.file(t))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// file exports the shard as an engine does: core sections, then
// crawler/meta, the banner column over the committed host table and
// shard/meta.
func (s *handShard) file(t testing.TB) *snapshot.File {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	if err := s.b.WriteSections(w); err != nil {
		t.Fatal(err)
	}
	hosts := s.b.LastGraph().Hosts()
	w.Begin("crawler/meta")
	w.I64(s.gen)
	w.I64(int64(len(hosts))) // probed hosts
	w.U64(0)                 // pending late hosts
	w.Begin(crawler.BannerSection)
	banners := make([]string, len(hosts))
	for i, h := range hosts {
		banners[i] = s.banner[h]
	}
	if err := snapshot.WriteStringTable(w, banners); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteShardMeta(w, snapshot.ShardMeta{Shard: s.name, Generation: s.gen}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// etagSource answers "unchanged" only for the generation the caller
// already holds, as the HTTP source's ETag does, so a shard restarted
// at a lower generation is fetched.
type etagSource struct{ ep *fleet.Epoch }

func (s *etagSource) Fetch(_ context.Context, haveGen int64) (*fleet.Epoch, error) {
	if s.ep == nil || s.ep.Generation == haveGen {
		return nil, nil
	}
	return s.ep, nil
}

// sameView fails the test unless the incrementally merged view got
// answers as the fresh merge want does: names, each name's TCB,
// failures, banners, vulnerabilities and the summary.
func sameView(t *testing.T, round string, got, want *view.View) {
	t.Helper()
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("%s: names\n got %v\nwant %v", round, got.Names(), want.Names())
	}
	for _, n := range want.Names() {
		g, err := got.TCB(n)
		if err != nil {
			t.Fatalf("%s: TCB(%s): %v", round, n, err)
		}
		w, err := want.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: TCB(%s) = %v, want %v", round, n, g, w)
		}
	}
	if g, w := failTexts(got.Survey()), failTexts(want.Survey()); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: failed\n got %v\nwant %v", round, g, w)
	}
	gs, ws := got.Survey(), want.Survey()
	if gb, wb := bannerTable(gs), bannerTable(ws); !reflect.DeepEqual(gb, wb) {
		t.Fatalf("%s: banners %v, want %v", round, gb, wb)
	}
	if gv, wv := vulnTable(gs), vulnTable(ws); !reflect.DeepEqual(gv, wv) {
		t.Fatalf("%s: vulns %v, want %v", round, gv, wv)
	}
	if g, w := got.Summary(), want.Summary(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: summary\n got %+v\nwant %+v", round, g, w)
	}
}

func failTexts(s *crawler.Survey) map[string]string {
	out := make(map[string]string, len(s.Failed))
	for n, err := range s.Failed {
		out[n] = err.Error()
	}
	return out
}

// freshMerge is a new coordinator's first commit over eps.
func freshMerge(t *testing.T, names []string, eps []*fleet.Epoch) *view.View {
	t.Helper()
	shards := make([]fleet.Shard, len(eps))
	for i, ep := range eps {
		shards[i] = fleet.Shard{Name: names[i], Source: &fleet.FixedSource{Epoch: ep}}
	}
	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return fv
}

// TestTailReplayEquivalence drives a three-shard fleet through rounds
// that each change some shards, and after every round holds the
// incrementally merged view — built from each shard's tail only — to a
// fresh coordinator's first commit over the same epochs. The rounds
// cover a name two shards hold, a name that fails after it resolved
// (and recovers), a host chain attached late, a re-chained name and a
// shard that restarts from scratch. Each round must also replay only
// the names its shards changed.
func TestTailReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	names := []string{"a", "b", "c"}
	shards := []*handShard{newHandShard("a"), newHandShard("b"), newHandShard("c")}
	srcs := make([]*etagSource, len(shards))
	decl := make([]fleet.Shard, len(shards))
	for i := range shards {
		srcs[i] = &etagSource{}
		decl[i] = fleet.Shard{Name: names[i], Source: srcs[i]}
	}
	inc, err := fleet.New(decl, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]*fleet.Epoch, len(shards))

	// round commits the shards in replays, feeds their epochs to the
	// incremental coordinator, and checks it against a fresh merge;
	// replays maps each changed shard to the names it must replay.
	round := func(what string, replays map[int]int) *view.View {
		t.Helper()
		for i := range replays {
			shards[i].commit()
			cur[i] = shards[i].epoch(t)
			srcs[i].ep = cur[i]
		}
		got, err := inc.Commit(ctx)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		replayed := inc.Replayed()
		for i, want := range replays {
			if replayed[i] != want {
				t.Fatalf("%s: shard %s replayed %d names, want %d", what, names[i], replayed[i], want)
			}
		}
		sameView(t, what, got, freshMerge(t, names, cur))
		return got
	}

	a, b := shards[0], shards[1]
	a.sites(0, 10)
	a.banner["ns.hoster.net"] = "" // a failed probe
	a.banner["ns.site0.com"] = "9.2.3"
	b.sites(10, 20)
	b.site("site5.com") // held by a too
	b.banner["ns.hoster.net"] = "8.2.4"
	shards[2].sites(20, 30)
	shards[2].lateZone()
	round("first commit", map[int]int{0: 10, 1: 11, 2: 11})

	a.sites(30, 32)
	round("a grows", map[int]int{0: 2})

	b.b.Fail("www.site12.com", errors.New("lame delegation"))
	round("a resolved name fails", map[int]int{1: 0})

	shards[2].attachLate()
	shards[2].sites(32, 33)
	fv := round("a host chain attaches late", map[int]int{2: 1})
	if tcb, _ := fv.TCB("www.late.com"); !slices.Contains(tcb, "ns.hoster.net") {
		t.Fatalf("TCB(www.late.com) = %v: the late host chain did not reach the merge", tcb)
	}

	c := newHandShard("c")
	c.sites(20, 30)
	c.lateZone()
	c.attachLate()
	c.sites(32, 34)
	shards[2] = c
	round("c restarts", map[int]int{2: 13})

	b.site("site12.com")
	b.banner["ns.site10.com"] = "8.2.4"
	round("the failed name recovers", map[int]int{1: 1})

	a.sites(34, 35)
	b.sites(35, 36)
	c.sites(36, 37)
	c.b.Fail("www.site21.com", errors.New("timeout"))
	round("every shard changes", map[int]int{0: 1, 1: 1, 2: 1})

	a.b.ObserveZone("www.site0.com", []string{"ns.hoster.net"})
	a.b.Complete("www.site0.com", []string{"com", "site0.com", "www.site0.com"})
	round("a name re-chains", map[int]int{0: 1})
}

// TestTailReplayEngines runs the same check on crawl engines: seed
// corpora that overlap, then batches routed to their ring owners. Each
// round replays exactly the batch's resolved names.
func TestTailReplayEngines(t *testing.T) {
	ctx := context.Background()
	world := genWorld(t, 42, 240)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	names := ring.Shards()
	seed, common, rest := world.Corpus[:150], world.Corpus[150:170], world.Corpus[170:]

	engines := make([]*crawler.Engine, len(names))
	srcs := make([]*countingSource, len(names))
	decl := make([]fleet.Shard, len(names))
	cur := make([]*fleet.Epoch, len(names))
	for i, part := range ring.Assign(seed) {
		engines[i], _ = newShardEngine(t, world, names[i])
		if _, err := engines[i].Add(ctx, append(append([]string(nil), part...), common...)...); err != nil {
			t.Fatal(err)
		}
		cur[i] = epochOf(t, engines[i])
		srcs[i] = &countingSource{ep: cur[i]}
		decl[i] = fleet.Shard{Name: names[i], Source: srcs[i]}
	}
	inc, err := fleet.New(decl, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameView(t, "seed", got, freshMerge(t, names, cur))

	for r := 0; len(rest) > 0; r++ {
		batch := rest[:min(len(rest), 20)]
		rest = rest[len(batch):]
		parts := ring.Assign(batch)
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			if _, err := engines[i].Add(ctx, part...); err != nil {
				t.Fatal(err)
			}
			cur[i] = epochOf(t, engines[i])
			srcs[i].set(cur[i])
		}
		got, err := inc.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		what := "round " + strconv.Itoa(r)
		sameView(t, what, got, freshMerge(t, names, cur))
		failed := got.Survey().Failed
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			want := 0
			for _, n := range part {
				if failed[n] == nil {
					want++
				}
			}
			if rp := inc.Replayed()[i]; rp != want {
				t.Fatalf("%s: shard %s replayed %d names, want its batch's %d", what, names[i], rp, want)
			}
		}
	}
}

// dropSource hands its epoch to the first fetch and forgets it, so
// after a commit only the coordinator could still reach the epoch.
type dropSource struct{ ep *fleet.Epoch }

func (s *dropSource) Fetch(context.Context, int64) (*fleet.Epoch, error) {
	ep := s.ep
	s.ep = nil
	return ep, nil
}

// fetchedOnce decodes the engine's snapshot from a heap buffer and
// returns a source holding the only reference to it, plus a weak
// pointer into that buffer.
func fetchedOnce(t *testing.T, e *crawler.Engine) (*dropSource, weak.Pointer[byte]) {
	ep := epochOf(t, e)
	if len(ep.Hosts) == 0 || len(ep.Names) == 0 || len(ep.Failed) == 0 || len(ep.Banners) == 0 {
		t.Fatalf("epoch holds %d hosts, %d names, %d failures, %d banners: want some of each",
			len(ep.Hosts), len(ep.Names), len(ep.Failed), len(ep.Banners))
	}
	return &dropSource{ep: ep}, weak.Make(unsafe.StringData(ep.Hosts[0]))
}

// TestCoordinatorDropsFetchedSnapshot: once a round has merged an
// epoch, the coordinator holds nothing of the fetched snapshot, so the
// buffer is freed when the epoch is dropped. A coordinator that kept a
// string view into it would grow by the fetched bytes every round.
func TestCoordinatorDropsFetchedSnapshot(t *testing.T) {
	world := genWorld(t, 41, 100)
	e, _ := newShardEngine(t, world, "s0")
	names := append([]string{"www.no-such-name.invalid"}, world.Corpus...)
	if _, err := e.Add(context.Background(), names...); err != nil {
		t.Fatal(err)
	}
	src, buf := fetchedOnce(t, e)
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: src}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if buf.Value() != nil {
		t.Fatal("the coordinator still pins the snapshot it fetched")
	}
	if fv.NumNames() == 0 {
		t.Fatal("merged view is empty")
	}
	runtime.KeepAlive(c)
}
