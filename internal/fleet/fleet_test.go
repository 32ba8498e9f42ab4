package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/vulndb"
)

func genWorld(t testing.TB, seed int64, names int) *topology.World {
	t.Helper()
	world, err := topology.Generate(topology.GenParams{Seed: seed, Names: names})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

// newShardEngine opens a crawl engine over the world behind a counted
// transport, labeled as one fleet shard (unlabeled when name is "").
func newShardEngine(t testing.TB, world *topology.World, name string) (*crawler.Engine, *transport.Counter) {
	t.Helper()
	counter := transport.NewCounter()
	tr := transport.Chain(world.Registry.Source(), counter.Middleware())
	r, err := world.Registry.Resolver(tr)
	if err != nil {
		t.Fatal(err)
	}
	e := crawler.NewEngine(r, world.Registry.ProbeFunc(tr), crawler.Config{Workers: 4, ShardName: name})
	t.Cleanup(func() { e.Close() })
	return e, counter
}

// epochOf exports the engine's current snapshot and decodes it as a
// shard epoch.
func epochOf(t testing.TB, e *crawler.Engine) *fleet.Epoch {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fleet.DecodeEpoch(f)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// crawlShards partitions the corpus over the ring, crawls each
// partition on its own engine, and returns the shard set plus the
// transport counters (one per shard, aligned with ring.Shards()).
func crawlShards(t testing.TB, world *topology.World, ring *fleet.Ring) ([]fleet.Shard, []*transport.Counter) {
	t.Helper()
	parts := ring.Assign(world.Corpus)
	names := ring.Shards()
	shards := make([]fleet.Shard, len(names))
	counters := make([]*transport.Counter, len(names))
	for i, name := range names {
		if len(parts[i]) == 0 {
			t.Fatalf("shard %s owns no names; pick a bigger corpus", name)
		}
		e, counter := newShardEngine(t, world, name)
		if _, err := e.Add(context.Background(), parts[i]...); err != nil {
			t.Fatal(err)
		}
		shards[i] = fleet.Shard{Name: name, Source: &fleet.FixedSource{Epoch: epochOf(t, e)}}
		counters[i] = counter
	}
	return shards, counters
}

// bannerTable lists every host's banner by host name.
func bannerTable(s *crawler.Survey) map[string]string {
	out := make(map[string]string, s.Graph.NumHosts())
	for id, h := range s.Graph.Hosts() {
		out[h] = s.HostBanner(int32(id))
	}
	return out
}

// vulnTable lists the exploits of every vulnerable host by host name.
func vulnTable(s *crawler.Survey) map[string][]vulndb.Vuln {
	out := make(map[string][]vulndb.Vuln)
	for id, h := range s.Graph.Hosts() {
		if vs := s.HostVulns(int32(id)); len(vs) > 0 {
			out[h] = vs
		}
	}
	return out
}

// TestFleetEquivalence is the tentpole acceptance test: a 3-shard
// fleet's merged view must be indistinguishable — summary, TCBs,
// banner table — from one monitor crawling the union corpus, and the
// merge itself must cost zero transport queries.
func TestFleetEquivalence(t *testing.T) {
	world := genWorld(t, 33, 180)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	shards, counters := crawlShards(t, world, ring)

	var queriesBefore int64
	for _, c := range counters {
		queriesBefore += c.Queries()
	}

	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var queriesAfter int64
	for _, ct := range counters {
		queriesAfter += ct.Queries()
	}
	if queriesAfter != queriesBefore {
		t.Fatalf("merge issued %d transport queries, want 0", queriesAfter-queriesBefore)
	}

	if fv.Generation() != 1 {
		t.Fatalf("first commit minted generation %d, want 1", fv.Generation())
	}
	if fv.Stale() || len(fv.StaleShards()) != 0 {
		t.Fatalf("all-healthy commit marked stale: %v", fv.StaleShards())
	}

	// The reference: one monitor crawling every name.
	se, _ := newShardEngine(t, world, "")
	if _, err := se.Add(context.Background(), world.Corpus...); err != nil {
		t.Fatal(err)
	}
	single := se.View()

	gotNames, wantNames := fv.Names(), append([]string(nil), single.Names...)
	sort.Strings(wantNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("merged view has %d names, single monitor %d (or ordering differs)", len(gotNames), len(wantNames))
	}

	gotSum := fv.Summary()
	wantSum := analysis.SummarizeMemo(single, wantNames, nil)
	if !reflect.DeepEqual(gotSum, wantSum) {
		t.Fatalf("merged summary diverges:\n got %+v\nwant %+v", gotSum, wantSum)
	}
	gotJSON, err := json.Marshal(gotSum)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(wantSum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("summary JSON diverges:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Spot-check transitive trust sets across the whole corpus.
	for i, n := range wantNames {
		if i%7 != 0 {
			continue
		}
		got, err := fv.TCB(n)
		if err != nil {
			t.Fatalf("TCB(%s): %v", n, err)
		}
		want, err := single.Graph.TCB(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TCB(%s) = %v, want %v", n, got, want)
		}
	}

	if !reflect.DeepEqual(bannerTable(fv.Survey()), bannerTable(single)) {
		t.Fatal("merged banner table diverges from the single-monitor crawl")
	}
	if !reflect.DeepEqual(vulnTable(fv.Survey()), vulnTable(single)) {
		t.Fatal("merged vulnerability table diverges from the single-monitor crawl")
	}

	// The first generation's change journal covers every name.
	if got := fv.Changed(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("first-generation journal has %d names, want all %d", len(got), len(wantNames))
	}
}

// stuckSource never answers: it parks on ctx like a shard whose
// process is wedged mid-accept.
type stuckSource struct{}

func (stuckSource) Fetch(ctx context.Context, _ int64) (*fleet.Epoch, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFleetDeadShard starts a 3-shard fleet with one shard that never
// responds. With quorum 2 the round must still commit — a partial view
// marked stale — within the round deadline, and the collector
// goroutines must all exit.
func TestFleetDeadShard(t *testing.T) {
	world := genWorld(t, 34, 150)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	shards, _ := crawlShards(t, world, ring)
	deadNames := map[string]bool{}
	parts := ring.Assign(world.Corpus)
	for _, n := range parts[2] {
		deadNames[n] = true
	}
	shards[2].Source = stuckSource{}

	goroutinesBefore := runtime.NumGoroutine()

	c, err := fleet.New(shards, fleet.Config{Timeout: 300 * time.Millisecond, Quorum: 2, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fv, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("commit took %v, want bounded by the round deadline", d)
	}

	if !fv.Stale() {
		t.Fatal("partial view not marked stale")
	}
	if got := fv.StaleShards(); !reflect.DeepEqual(got, []string{"s2"}) {
		t.Fatalf("stale shards = %v, want [s2]", got)
	}
	for _, n := range fv.Names() {
		if deadNames[n] {
			t.Fatalf("name %s belongs to the dead shard but appears in the merged view", n)
		}
	}
	if len(fv.Names()) == 0 {
		t.Fatal("partial view is empty")
	}
	st := fv.Shards()
	if len(st) != 3 || !st[2].Stale || st[2].Err == "" || st[2].Generation != -1 {
		t.Fatalf("shard status = %+v, want s2 stale with an error at generation -1", st)
	}

	// No leaked collectors: the goroutine count settles back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutinesBefore {
		t.Fatalf("%d goroutines after commit, %d before: collector leaked", got, goroutinesBefore)
	}
}

// TestFleetQuorum proves that losing more shards than quorum allows
// fails the round and leaves the previous view standing.
func TestFleetQuorum(t *testing.T) {
	world := genWorld(t, 35, 120)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	shards, _ := crawlShards(t, world, ring)
	shards[1].Source = stuckSource{}
	shards[2].Source = stuckSource{}

	// Majority quorum (2 of 3) with two dead shards: no commit.
	c, err := fleet.New(shards, fleet.Config{Timeout: 200 * time.Millisecond, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background()); err == nil {
		t.Fatal("commit succeeded below quorum")
	}
	if c.Current() != nil {
		t.Fatal("failed round published a view")
	}
	if c.Generation() != 0 {
		t.Fatalf("failed round advanced the generation to %d", c.Generation())
	}
	st := c.Status()
	if len(st) != 3 || !st[1].Stale || !st[2].Stale || st[1].Failures == 0 {
		t.Fatalf("status after failed round = %+v", st)
	}
}

// countingSource serves a swappable epoch and counts how commits hit
// it, distinguishing full transfers from cheap "unchanged" answers.
type countingSource struct {
	mu        sync.Mutex
	ep        *fleet.Epoch
	fetches   int
	unchanged int
}

func (s *countingSource) Fetch(_ context.Context, haveGen int64) (*fleet.Epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches++
	if s.ep == nil || haveGen >= s.ep.Generation {
		s.unchanged++
		return nil, nil
	}
	return s.ep, nil
}

func (s *countingSource) set(ep *fleet.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ep = ep
}

func (s *countingSource) counts() (fetches, unchanged int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches, s.unchanged
}

// TestFleetIncremental drives two commit rounds: after the first, only
// shard s0 grows. The second round must confirm the other shards
// unchanged without re-transferring them, mint a new generation whose
// change journal names only the new arrivals, and serve the extended
// partition.
func TestFleetIncremental(t *testing.T) {
	world := genWorld(t, 36, 180)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	parts := ring.Assign(world.Corpus)
	names := ring.Shards()

	engines := make([]*crawler.Engine, 3)
	sources := make([]*countingSource, 3)
	shards := make([]fleet.Shard, 3)
	// s0 holds back the second half of its partition for round two.
	half := len(parts[0]) / 2
	if half == 0 || len(parts[0])-half == 0 {
		t.Fatalf("s0 owns %d names; pick a bigger corpus", len(parts[0]))
	}
	for i, name := range names {
		e, _ := newShardEngine(t, world, name)
		engines[i] = e
		first := parts[i]
		if i == 0 {
			first = parts[0][:half]
		}
		if _, err := e.Add(context.Background(), first...); err != nil {
			t.Fatal(err)
		}
		sources[i] = &countingSource{ep: epochOf(t, e)}
		shards[i] = fleet.Shard{Name: name, Source: sources[i]}
	}

	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv1, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv1.Generation() != 1 {
		t.Fatalf("generation %d after first commit, want 1", fv1.Generation())
	}

	// An unchanged round: same epochs everywhere, no new generation.
	fv1b, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv1b != fv1 {
		t.Fatalf("unchanged round minted generation %d", fv1b.Generation())
	}

	// Shard s0 grows; the fleet re-commits.
	extra := parts[0][half:]
	if _, err := engines[0].Add(context.Background(), extra...); err != nil {
		t.Fatal(err)
	}
	sources[0].set(epochOf(t, engines[0]))
	fv2, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv2.Generation() != 2 {
		t.Fatalf("generation %d after growth commit, want 2", fv2.Generation())
	}
	for i := 1; i < 3; i++ {
		fetches, unchanged := sources[i].counts()
		if fetches != 3 || unchanged != 2 {
			t.Fatalf("shard %s: %d fetches / %d unchanged, want 3/2 (conditional refresh only)", names[i], fetches, unchanged)
		}
	}

	want := append([]string(nil), world.Corpus...)
	sort.Strings(want)
	if got := fv2.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("grown view has %d names, want the full corpus (%d)", len(got), len(want))
	}
	wantChanged := append([]string(nil), extra...)
	sort.Strings(wantChanged)
	if got := fv2.Changed(); !reflect.DeepEqual(got, wantChanged) {
		t.Fatalf("change journal has %d names, want exactly the %d new arrivals", len(got), len(wantChanged))
	}

	// The two generations diff along the journal: only the new names.
	d, err := c.Between(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.NamesAdded); got != len(extra) {
		t.Fatalf("delta reports %d added names, want %d", got, len(extra))
	}
}

// withBanner returns a copy of ep at generation gen whose banner for
// host is banner.
func withBanner(t *testing.T, ep *fleet.Epoch, gen int64, host, banner string) *fleet.Epoch {
	t.Helper()
	cp := *ep
	cp.Generation = gen
	cp.Banners = append([]string(nil), ep.Banners...)
	i := slices.Index(cp.Hosts, host)
	if i < 0 || i >= len(cp.Banners) {
		t.Fatalf("epoch of shard %s has no banner for %s", ep.Shard, host)
	}
	cp.Banners[i] = banner
	return &cp
}

// TestFleetBannerFirstNonEmptyWins: two shards share a host; one
// shard's probe of it failed (banner ""), the other's saw a vulnerable
// version — but only from the second round on. Whichever shard changes
// last, the merged view must keep the host vulnerable, and its
// memo-served Summary and Bottlenecks must equal a fresh computation in
// every round, including the one where the host turns vulnerable.
func TestFleetBannerFirstNonEmptyWins(t *testing.T) {
	ctx := context.Background()
	world := genWorld(t, 38, 160)
	ring := fleet.NewRing([]string{"s0", "s1"}, 0)
	shards, _ := crawlShards(t, world, ring)
	base := make([]*fleet.Epoch, 2)
	for i, sh := range shards {
		base[i] = sh.Source.(*fleet.FixedSource).Epoch
	}

	// The shared host: the first by name both shards probed. The
	// vulnerable banner: any banner of the world the matrix scores as
	// exploitable.
	db := vulndb.Default()
	var host, vulnBanner string
	probed1 := base[1].Hosts[:len(base[1].Banners)]
	for _, h := range base[0].Hosts[:len(base[0].Banners)] {
		if slices.Contains(probed1, h) && (host == "" || h < host) {
			host = h
		}
	}
	for _, b := range base[0].Banners {
		if len(db.VulnsForBanner(b)) > 0 {
			vulnBanner = b
			break
		}
	}
	if host == "" || vulnBanner == "" {
		t.Fatalf("world has no shared host (%q) or no vulnerable banner (%q); pick another seed", host, vulnBanner)
	}

	sources := []*countingSource{
		{ep: withBanner(t, base[0], 1, host, "")},
		{ep: withBanner(t, base[1], 1, host, "")},
	}
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: sources[0]}, {Name: "s1", Source: sources[1]}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		if round > 1 {
			// s1 changes on even rounds with the vulnerable banner, s0 on
			// odd rounds with its failed probe.
			shard, gen := (round+1)%2, int64(round/2+1)
			banner := ""
			if shard == 1 {
				banner = vulnBanner
			}
			sources[shard].set(withBanner(t, base[shard], gen, host, banner))
		}
		fv, err := c.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fv.Generation() != int64(round) {
			t.Fatalf("round %d committed generation %d", round, fv.Generation())
		}
		s := fv.Survey()
		if got, want := s.Vulnerable(host), round > 1; got != want {
			t.Fatalf("round %d: Vulnerable(%s) = %v, want %v", round, host, got, want)
		}
		if got, want := fv.Summary(), analysis.Summarize(s, s.Names); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: memo-served summary %+v, fresh %+v", round, got, want)
		}
		got, err := fv.Bottlenecks(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := analysis.Bottlenecks(ctx, s, s.Names, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: memo-served bottlenecks differ from a fresh pass", round)
		}
	}
}

// TestFleetRescoresOnlyHeldHosts: fleet rounds whose new names bring new
// hosts report none of them rescored — a host the previous generation
// did not hold has no score to change, and reporting it would flush the
// fleet's chain memo every round — while a host the previous generation
// held whose banner a round reveals is reported, alone.
func TestFleetRescoresOnlyHeldHosts(t *testing.T) {
	ctx := context.Background()
	world := genWorld(t, 36, 180)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	parts := ring.Assign(world.Corpus)
	engines := make([]*crawler.Engine, 3)
	sources := make([]*countingSource, 3)
	shards := make([]fleet.Shard, 3)
	// Each shard surveys a third of its partition per round.
	third := func(i, k int) []string {
		n := len(parts[i])
		return parts[i][k*n/3 : (k+1)*n/3]
	}
	for i, name := range ring.Shards() {
		e, _ := newShardEngine(t, world, name)
		if _, err := e.Add(ctx, third(i, 0)...); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		sources[i] = &countingSource{ep: epochOf(t, e)}
		shards[i] = fleet.Shard{Name: name, Source: sources[i]}
	}

	// The hidden host: shard s0's first host whose banner scores
	// vulnerable and that no other shard holds. Its banner stays hidden
	// until s0's second-round epoch.
	held := map[string]bool{}
	for _, src := range sources[1:] {
		for _, h := range src.ep.Hosts {
			held[h] = true
		}
	}
	ep0 := sources[0].ep
	host := ""
	db := vulndb.Default()
	for i, b := range ep0.Banners {
		if len(db.VulnsForBanner(b)) > 0 && !held[ep0.Hosts[i]] {
			host = ep0.Hosts[i]
			break
		}
	}
	if host == "" {
		t.Fatal("shard s0 holds no vulnerable host of its own; pick another seed")
	}
	sources[0].set(withBanner(t, ep0, ep0.Generation, host, ""))

	c, err := fleet.New(shards, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := c.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	newHosts := 0
	for k := 1; k < 3; k++ {
		for i, e := range engines {
			if _, err := e.Add(ctx, third(i, k)...); err != nil {
				t.Fatal(err)
			}
			sources[i].set(epochOf(t, e))
			fv, err := c.Commit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			s, before := fv.Survey(), prev.Survey().Graph.NumHosts()
			newHosts += s.Graph.NumHosts() - before
			var want []int32
			if k == 1 && i == 0 {
				id, ok := s.Graph.HostID(host)
				if !ok {
					t.Fatalf("merged view lost %s", host)
				}
				want = []int32{id}
			}
			got := s.Stats.RescoredHosts
			for _, h := range got {
				if int(h) >= before {
					t.Errorf("generation %d: rescored host %d is new: the previous generation held %d hosts", fv.Generation(), h, before)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("generation %d: rescored hosts %v, want %v", fv.Generation(), got, want)
			}
			prev = fv
		}
	}
	if newHosts == 0 {
		t.Fatal("no round brought a new host; pick another seed")
	}
}

// TestFleetDeterminism: two coordinators fed the same shard snapshot
// set (declared in different orders) converge on byte-identical merged
// snapshots.
func TestFleetDeterminism(t *testing.T) {
	world := genWorld(t, 37, 150)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	shards, _ := crawlShards(t, world, ring)

	shuffled := []fleet.Shard{shards[2], shards[0], shards[1]}
	var snaps [2][]byte
	for i, decl := range [][]fleet.Shard{shards, shuffled} {
		c, err := fleet.New(decl, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[i] = buf.Bytes()
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("merged snapshots diverge: %d vs %d bytes", len(snaps[0]), len(snaps[1]))
	}
}

// TestHTTPSourceConditional exercises the HTTP pull path end to end:
// full transfer on first fetch, 304 on the conditional refetch, full
// transfer again after the shard grows.
func TestHTTPSourceConditional(t *testing.T) {
	world := genWorld(t, 38, 120)
	e, _ := newShardEngine(t, world, "s0")
	if _, err := e.Add(context.Background(), world.Corpus[:60]...); err != nil {
		t.Fatal(err)
	}

	var served, notModified int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		etag := fmt.Sprintf(`"%d"`, e.View().Stats.Generation)
		if r.Header.Get("If-None-Match") == etag {
			notModified++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		served++
		w.Header().Set("ETag", etag)
		if err := e.WriteSnapshot(w); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: &fleet.HTTPSource{URL: srv.URL}}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv1, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv1.NumNames() != 60 {
		t.Fatalf("first commit merged %d names, want 60", fv1.NumNames())
	}
	fv1b, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv1b != fv1 {
		t.Fatal("304 round minted a new generation")
	}
	if served != 1 || notModified != 1 {
		t.Fatalf("served=%d notModified=%d, want 1/1", served, notModified)
	}

	if _, err := e.Add(context.Background(), world.Corpus[60:]...); err != nil {
		t.Fatal(err)
	}
	fv2, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fv2.NumNames() != len(world.Corpus) {
		t.Fatalf("grown commit merged %d names, want %d", fv2.NumNames(), len(world.Corpus))
	}
	if served != 2 {
		t.Fatalf("served=%d after growth, want 2", served)
	}

	// A snapshot whose checksums pass but which holds no shard epoch
	// fails the fetch naming the shard, with ErrCorrupt still wrapped.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := snapshot.NewWriter(w).Finish(); err != nil {
			t.Error(err)
		}
	}))
	defer empty.Close()
	_, err = (&fleet.HTTPSource{URL: empty.URL}).Fetch(context.Background(), -1)
	if !errors.Is(err, snapshot.ErrCorrupt) || !strings.HasPrefix(err.Error(), "fleet: fetch "+empty.URL+": ") {
		t.Fatalf("fetch of an empty snapshot = %v, want ErrCorrupt naming %s", err, empty.URL)
	}
}

// TestHTTPSourceRejectsDeclaredOversize: a shard whose GET /snapshot
// declares a body past MaxSnapshotBytes fails the fetch before any of
// it is read (the server sends none, so a read would fail otherwise).
func TestHTTPSourceRejectsDeclaredOversize(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(fleet.MaxSnapshotBytes+1))
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	_, err := (&fleet.HTTPSource{URL: srv.URL}).Fetch(context.Background(), -1)
	if err == nil || !strings.Contains(err.Error(), "exceeds the") {
		t.Fatalf("fetch of a %d-byte snapshot = %v, want the cap error", fleet.MaxSnapshotBytes+1, err)
	}
}

// TestHTTPSourceStopsChunkedBodyAtCap: a chunked body declares no
// length, so the read itself stops at the cap.
func TestHTTPSourceStopsChunkedBodyAtCap(t *testing.T) {
	const limit = 4 << 10
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 1<<10)
		for i := 0; i < 16; i++ {
			w.Write(chunk)
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	_, err := (&fleet.HTTPSource{URL: srv.URL}).FetchLimited(context.Background(), -1, limit)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the %d-byte cap", limit)) {
		t.Fatalf("fetch of a 16 KiB chunked snapshot under a %d-byte cap = %v, want the cap error", limit, err)
	}
}

// TestFleetViewDiffNil: a merged view is the shared view type, so a nil
// older view is refused with the single-monitor error instead of
// dereferenced.
func TestFleetViewDiffNil(t *testing.T) {
	world := genWorld(t, 40, 100)
	e, _ := newShardEngine(t, world, "s0")
	if _, err := e.Add(context.Background(), world.Corpus[:40]...); err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: &fleet.FixedSource{Epoch: epochOf(t, e)}}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fv, err := c.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fv.Diff(nil); err == nil || err.Error() != "dnstrust: Diff of a nil view" {
		t.Fatalf("Diff(nil) on a merged view = %v, want the nil-view error", err)
	}
	if d, err := fv.Diff(fv); err != nil || !d.Empty() {
		t.Fatalf("merged view diffed against itself: %v, %+v", err, d)
	}
}

// TestFleetShardMismatch: a source answering with another shard's
// label is treated as a fetch failure, not silently merged.
func TestFleetShardMismatch(t *testing.T) {
	world := genWorld(t, 39, 100)
	e, _ := newShardEngine(t, world, "other")
	if _, err := e.Add(context.Background(), world.Corpus[:40]...); err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: &fleet.FixedSource{Epoch: epochOf(t, e)}}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background()); err == nil {
		t.Fatal("misrouted shard committed")
	}
	st := c.Status()
	if len(st) != 1 || !st[0].Stale || st[0].Err == "" {
		t.Fatalf("status = %+v, want a stale shard with a mismatch error", st)
	}
}

func TestRing(t *testing.T) {
	shards := []string{"s1", "s0", "s2"}
	r1 := fleet.NewRing(shards, 0)
	r2 := fleet.NewRing([]string{"s2", "s1", "s0"}, 0)
	if got := r1.Shards(); !reflect.DeepEqual(got, []string{"s0", "s1", "s2"}) {
		t.Fatalf("Shards() = %v", got)
	}

	names := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		names = append(names, fmt.Sprintf("www%d.dom%d.tld%d", i, i%40, i%7))
	}
	owned := map[string]int{}
	for _, n := range names {
		o1, o2 := r1.Owner(n), r2.Owner(n)
		if o1 == "" || o1 != o2 {
			t.Fatalf("owner of %s: %q vs %q (declaration order leaked)", n, o1, o2)
		}
		owned[o1]++
	}
	if len(owned) != 3 {
		t.Fatalf("300 names landed on %d of 3 shards: %v", len(owned), owned)
	}

	if a, b := r1.Owner("WWW.Example.COM."), r1.Owner("www.example.com"); a != b {
		t.Fatalf("canonicalization leak: %q vs %q", a, b)
	}

	parts := r1.Assign(names)
	total := 0
	for i, p := range parts {
		total += len(p)
		for _, n := range p {
			if r1.OwnerIndex(n) != i {
				t.Fatalf("Assign put %s in partition %d, Owner says %d", n, i, r1.OwnerIndex(n))
			}
		}
	}
	if total != len(names) {
		t.Fatalf("Assign placed %d of %d names", total, len(names))
	}

	if fleet.NewRing(nil, 0).Owner("x") != "" {
		t.Fatal("empty ring claims an owner")
	}
}

// BenchmarkFleetMerge exercises the cold three-shard merge at test
// scale so the bench smoke keeps the path compiling and running; the
// gated full-corpus measurement lives in cmd/dnsbench (FleetMerge/...).
func BenchmarkFleetMerge(b *testing.B) {
	world := genWorld(b, 33, 120)
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	shards, _ := crawlShards(b, world, ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := fleet.New(shards, fleet.Config{})
		if err != nil {
			b.Fatal(err)
		}
		fv, err := c.Commit(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if fv.NumNames() != len(world.Corpus) {
			b.Fatalf("merged %d of %d names", fv.NumNames(), len(world.Corpus))
		}
	}
}
