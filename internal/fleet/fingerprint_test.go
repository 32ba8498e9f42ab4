package fleet_test

import (
	"context"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dnstrust/internal/atomicio"
	"dnstrust/internal/crawler"
	"dnstrust/internal/fleet"
)

// TestFingerprintsRestoreEquivalence holds the banner column's codec to
// what it encodes: for every host of an engine's survey, Banner, Vulns,
// Vulnerable and Compromisable answer the same after save → restore
// (crawler.NewEngineFromSnapshot) and after DecodeEpoch → merge.
func TestFingerprintsRestoreEquivalence(t *testing.T) {
	world := genWorld(t, 44, 300)
	e, _ := newShardEngine(t, world, "s0")
	ctx := context.Background()
	for _, batch := range [][]string{world.Corpus[:100], world.Corpus[100:]} {
		if _, err := e.Add(ctx, batch...); err != nil {
			t.Fatal(err)
		}
	}
	orig := e.View()
	var shown, vulnerable, compromisable int
	for _, h := range orig.Graph.Hosts() {
		if orig.Banner(h) != "" {
			shown++
		}
		if orig.Vulnerable(h) {
			vulnerable++
		}
		if orig.Compromisable(h) {
			compromisable++
		}
	}
	if shown == 0 || vulnerable == 0 || compromisable == 0 || shown == orig.Graph.NumHosts() {
		t.Fatalf("%d hosts: %d banners shown, %d vulnerable, %d compromisable; want some of each and some hidden",
			orig.Graph.NumHosts(), shown, vulnerable, compromisable)
	}

	path := filepath.Join(t.TempDir(), "s0.snap")
	if _, err := atomicio.WriteFile(path, func(w io.Writer) error { return e.WriteSnapshot(w) }); err != nil {
		t.Fatal(err)
	}
	r, err := world.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	re, err := crawler.NewEngineFromSnapshot(r, nil, crawler.Config{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	for _, tc := range []struct {
		how string
		got *crawler.Survey
	}{
		{"save → restore", re.View()},
		{"DecodeEpoch → merge", freshMerge(t, []string{"s0"}, []*fleet.Epoch{epochOf(t, e)}).Survey()},
	} {
		if tc.got.Graph.NumHosts() != orig.Graph.NumHosts() {
			t.Fatalf("%s: %d hosts, want %d", tc.how, tc.got.Graph.NumHosts(), orig.Graph.NumHosts())
		}
		for _, h := range orig.Graph.Hosts() {
			if g, w := tc.got.Banner(h), orig.Banner(h); g != w {
				t.Fatalf("%s: Banner(%s) = %q, want %q", tc.how, h, g, w)
			}
			if g, w := tc.got.Vulns(h), orig.Vulns(h); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Vulns(%s) = %v, want %v", tc.how, h, g, w)
			}
			if tc.got.Vulnerable(h) != orig.Vulnerable(h) || tc.got.Compromisable(h) != orig.Compromisable(h) {
				t.Fatalf("%s: %s vulnerable/compromisable %v/%v, want %v/%v", tc.how, h,
					tc.got.Vulnerable(h), tc.got.Compromisable(h), orig.Vulnerable(h), orig.Compromisable(h))
			}
		}
		if g, w := tc.got.VulnerableHosts(), orig.VulnerableHosts(); g != w {
			t.Fatalf("%s: %d vulnerable hosts, want %d", tc.how, g, w)
		}
	}
}

// readWhile reads every host's fingerprint in s, by id and by name, on
// another goroutine until write returns, failing the test if any read
// differs from what s showed before write started. Run under -race it
// also shows that write touches nothing s can reach.
func readWhile(t *testing.T, s *crawler.Survey, write func()) {
	t.Helper()
	banners, vulns := bannerTable(s), vulnTable(s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for id, h := range s.Graph.Hosts() {
				if s.HostBanner(int32(id)) != banners[h] || s.Banner(h) != banners[h] ||
					!reflect.DeepEqual(s.HostVulns(int32(id)), vulns[h]) {
					t.Errorf("host %s of generation %d changed while held", h, s.Stats.Generation)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	write()
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(bannerTable(s), banners) || !reflect.DeepEqual(vulnTable(s), vulns) {
		t.Fatalf("generation %d changed while held", s.Stats.Generation)
	}
}

// TestHeldGenerationNeverChanges: a generation N a reader holds shows
// the same fingerprints while its owner writes the shared column —
// an engine's next Add appending hosts, and a fleet round filling in a
// banner that was empty at N — and generation N+1 shows the new values.
func TestHeldGenerationNeverChanges(t *testing.T) {
	ctx := context.Background()
	t.Run("engine", func(t *testing.T) {
		world := genWorld(t, 45, 240)
		e, _ := newShardEngine(t, world, "")
		held, err := e.Add(ctx, world.Corpus[:80]...)
		if err != nil {
			t.Fatal(err)
		}
		var next *crawler.Survey
		readWhile(t, held, func() {
			if next, err = e.Add(ctx, world.Corpus[80:]...); err != nil {
				t.Error(err)
			}
		})
		if next == nil {
			t.FailNow()
		}
		added, shown := 0, 0
		for _, h := range next.Graph.Hosts()[held.Graph.NumHosts():] {
			added++
			if want := world.Registry.Server(h).Banner; next.Banner(h) != want {
				t.Fatalf("generation %d: Banner(%s) = %q, want %q", next.Stats.Generation, h, next.Banner(h), want)
			}
			if next.Banner(h) != "" {
				shown++
			}
		}
		if added == 0 || shown == 0 {
			t.Fatalf("the second Add fingerprinted %d new hosts, %d with a banner: want some", added, shown)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		const host = "ns.hoster.net" // in both shards' host tables
		a, b := newHandShard("a"), newHandShard("b")
		a.sites(0, 3)
		b.sites(3, 6)
		a.commit()
		b.commit()
		srcs := []*etagSource{{ep: a.epoch(t)}, {ep: b.epoch(t)}}
		c, err := fleet.New([]fleet.Shard{{Name: "a", Source: srcs[0]}, {Name: "b", Source: srcs[1]}}, fleet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fv, err := c.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held := fv.Survey()
		if held.Banner(host) != "" || held.Vulnerable(host) {
			t.Fatalf("generation 1: %s shows %q", host, held.Banner(host))
		}
		b.banner[host] = "8.2.4"
		b.commit()
		srcs[1].ep = b.epoch(t)
		readWhile(t, held, func() {
			if fv, err = c.Commit(ctx); err != nil {
				t.Error(err)
			}
		})
		next := fv.Survey()
		if next.Stats.Generation != 2 || next.Banner(host) != "8.2.4" || !next.Vulnerable(host) {
			t.Fatalf("generation %d: %s shows %q (vulnerable %v), want 8.2.4 at generation 2",
				next.Stats.Generation, host, next.Banner(host), next.Vulnerable(host))
		}
	})
}
