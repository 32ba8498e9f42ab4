package dnstrust

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/transport"
)

// TestRecordReplayEquivalence is the acceptance proof for the offline
// crawl mode: a crawl over the direct source with a Record middleware,
// then a crawl of the same corpus served entirely from that recording —
// through a Save/Load round trip, in strict replay — must complete with
// zero transport queries to any terminal source beyond the log and
// produce an identical Summary, identical per-name TCBs, and identical
// min-cut bottlenecks.
func TestRecordReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	log := transport.NewLog()
	opts := Options{Seed: 31, Names: 400, Workers: 4, RecordLog: log}

	world, err := NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := OpenWorld(ctx, world, opts)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := m1.Add(ctx, world.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Fatal("recording crawl captured nothing")
	}

	// Round-trip the recording through its file format, as dnssurvey
	// -record / -replay would.
	var file bytes.Buffer
	saved, err := log.Save(&file)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := transport.NewLog()
	if n, err := reloaded.Load(bytes.NewReader(file.Bytes())); err != nil || n != saved {
		t.Fatalf("log round trip: loaded %d of %d records, err=%v", n, saved, err)
	}

	// Strict replay: the log is the only Internet. Completing at all
	// proves no other source was touched; the counter on the unused
	// direct terminal in the fallthrough variant below proves it again
	// explicitly.
	world2, err := NewWorld(Options{Seed: 31, Names: 400})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := OpenWorld(ctx, world2, Options{Workers: 4, ReplayLog: reloaded})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	v2, err := m2.Add(ctx, world2.Corpus...)
	if err != nil {
		t.Fatal(err)
	}

	// Identical Summary.
	s1, s2 := v1.Summary(), v2.Summary()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("replayed summary differs:\nrecorded %+v\nreplayed %+v", s1, s2)
	}
	if len(v2.Names()) != len(world.Corpus) {
		t.Fatalf("replay surveyed %d of %d names (failed: %d)",
			len(v2.Names()), len(world.Corpus), len(v2.Survey().Failed))
	}

	// Identical per-name TCBs and min-cut bottlenecks.
	for i, n := range v1.Names() {
		t1, err1 := v1.TCB(n)
		t2, err2 := v2.TCB(n)
		if err1 != nil || err2 != nil {
			t.Fatalf("TCB(%s): %v / %v", n, err1, err2)
		}
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("TCB(%s) differs between recorded and replayed crawl", n)
		}
		if i%25 != 0 {
			continue // min-cuts on a sample; they are the expensive part
		}
		c1, err1 := v1.Bottleneck(n)
		c2, err2 := v2.Bottleneck(n)
		if err1 != nil || err2 != nil {
			t.Fatalf("Bottleneck(%s): %v / %v", n, err1, err2)
		}
		if c1.Size != c2.Size || c1.SafeInCut != c2.SafeInCut || c1.VulnInCut != c2.VulnInCut {
			t.Fatalf("Bottleneck(%s) differs: size %d/%d safe %d/%d",
				n, c1.Size, c2.Size, c1.SafeInCut, c2.SafeInCut)
		}
	}

	// Fallthrough replay over a counted terminal — the -memo-file resume
	// path: zero queries to the terminal source.
	counter := transport.NewCounter()
	world3, err := NewWorld(Options{Seed: 31, Names: 400})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := OpenWorld(ctx, world3, Options{Workers: 4, ReplayLog: reloaded, ReplayFallthrough: true,
		Source: transport.Chain(world3.Registry.Source(), counter.Middleware())})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	v3, err := m3.Add(ctx, world3.Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.Queries(); got != 0 {
		t.Errorf("fallthrough replay sent %d queries to the terminal source, want 0", got)
	}
	if !reflect.DeepEqual(v3.Summary(), s1) {
		t.Error("fallthrough-replayed summary differs from the recorded crawl")
	}
}

// TestFallthroughLogResume is the -memo-file resume path: a crawl over an
// empty fallthrough log fills it, and a second crawl of the same world
// resumed from the saved log — fingerprint probes on — sends zero
// queries to its terminal and reproduces the names, banners, per-name
// TCBs and Summary.
func TestFallthroughLogResume(t *testing.T) {
	ctx := context.Background()
	world, err := NewWorld(Options{Seed: 17, Names: 300})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	crawl := func() (*View, int64) {
		log := transport.NewLog()
		if file.Len() > 0 {
			if _, err := log.Load(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		counter := transport.NewCounter()
		m, err := OpenWorld(ctx, world, Options{Workers: 4, ReplayLog: log, ReplayFallthrough: true,
			Source: transport.Chain(world.Registry.Source(), counter.Middleware())})
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Add(ctx, world.Corpus...)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		file.Reset()
		if _, err := log.Save(&file); err != nil {
			t.Fatal(err)
		}
		return v, counter.Queries()
	}

	v1, q1 := crawl()
	if q1 == 0 {
		t.Fatal("first crawl issued no terminal queries")
	}
	v2, q2 := crawl()
	if q2 != 0 {
		t.Errorf("resumed crawl sent %d queries to the terminal, want 0 (all answered from the log)", q2)
	}
	if !reflect.DeepEqual(v1.Names(), v2.Names()) {
		t.Fatalf("resumed names differ: %d vs %d", len(v1.Names()), len(v2.Names()))
	}
	if !reflect.DeepEqual(bannerTable(v1.Survey()), bannerTable(v2.Survey())) {
		t.Error("resumed banners differ")
	}
	for _, n := range v1.Names() {
		if a, b := v1.Survey().Graph.TCBSize(n), v2.Survey().Graph.TCBSize(n); a != b {
			t.Fatalf("TCB(%s) differs after resume: %d vs %d", n, a, b)
		}
	}
	if !reflect.DeepEqual(v1.Summary(), v2.Summary()) {
		t.Error("resumed summary differs")
	}
}

// idJitterSource stamps a fresh, schedule-dependent ID onto every
// response — the behaviour of a live crawl's dnsclient, whose random
// query IDs echo back in the answers.
type idJitterSource struct {
	transport.Source
	n atomic.Uint32
}

func (s *idJitterSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	resp, err := s.Source.Query(ctx, server, name, qtype, class)
	if err == nil {
		resp.ID = uint16(s.n.Add(1))
	}
	return resp, err
}

// TestRecordingByteStable: two parallel recorded crawls of the same
// corpus must save byte-identical query logs, even when the terminal
// stamps schedule-dependent response IDs — the walker asks each question
// once, of servers in a fixed order, and Save sorts records and zeroes
// IDs, so nothing schedule-dependent reaches the file. This is the
// diffability guarantee longitudinal comparisons and resumed
// -memo-file logs rest on.
func TestRecordingByteStable(t *testing.T) {
	ctx := context.Background()
	world, err := NewWorld(Options{Seed: 37, Names: 250})
	if err != nil {
		t.Fatal(err)
	}
	recordOnce := func() []byte {
		log := transport.NewLog()
		m, err := OpenWorld(ctx, world, Options{Workers: 8, RecordLog: log,
			Source: &idJitterSource{Source: world.Registry.Source()}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Add(ctx, world.Corpus...); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := log.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	b1, b2 := recordOnce(), recordOnce()
	if len(b1) == 0 {
		t.Fatal("empty recording")
	}
	if !bytes.Equal(b1, b2) {
		t.Error("two recordings of the same corpus serialized different bytes")
	}
}

// TestFaultInjectionDrivesRetryPaths drives the walker's failure
// handling through the Fault middleware: with a seeded probability of
// injected timeouts and a retry budget of one server per logical query,
// a crawl must complete (no engine error), fail some walks through the
// ErrRetryBudget / ErrLameDelegation paths, and — because fault
// decisions are a pure hash of (seed, server, name, qtype) — fail
// exactly the same names with exactly the same errors on a rerun.
func TestFaultInjectionDrivesRetryPaths(t *testing.T) {
	ctx := context.Background()
	world, err := NewWorld(Options{Seed: 11, Names: 250})
	if err != nil {
		t.Fatal(err)
	}
	model := transport.FaultModel{Seed: 99, Timeout: 0.25, ServFail: 0.1}

	crawlOnce := func() (map[string]error, int) {
		src := transport.Chain(world.Registry.Source(), transport.Fault(model))
		r, err := resolver.New(src, resolver.Config{
			Roots:       world.Registry.RootServers(),
			RetryBudget: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := resolver.NewWalker(r)
		failed := map[string]error{}
		ok := 0
		for _, n := range world.Corpus {
			if _, err := w.WalkName(ctx, n); err != nil {
				failed[n] = err
			} else {
				ok++
			}
		}
		return failed, ok
	}

	failed1, ok1 := crawlOnce()
	if len(failed1) == 0 {
		t.Fatal("Timeout=0.25 with RetryBudget=1 failed no walks; fault injection is not reaching the retry paths")
	}
	if ok1 == 0 {
		t.Fatal("every walk failed; the fault model should leave survivors")
	}

	budgetHits, lameHits := 0, 0
	for _, err := range failed1 {
		if errors.Is(err, resolver.ErrRetryBudget) {
			budgetHits++
		}
		if errors.Is(err, resolver.ErrLameDelegation) {
			lameHits++
		}
	}
	if budgetHits == 0 {
		t.Error("no failure went through the ErrRetryBudget path")
	}
	if lameHits == 0 {
		t.Error("no failure went through the ErrLameDelegation path")
	}

	// Same seed, same serial schedule: byte-identical failure set.
	failed2, ok2 := crawlOnce()
	if ok1 != ok2 || len(failed1) != len(failed2) {
		t.Fatalf("fault runs diverged: %d/%d ok, %d/%d failed", ok1, ok2, len(failed1), len(failed2))
	}
	for n, e1 := range failed1 {
		e2, ok := failed2[n]
		if !ok {
			t.Fatalf("name %s failed only in the first run", n)
		}
		if e1.Error() != e2.Error() {
			t.Fatalf("failure for %s differs:\n%v\nvs\n%v", n, e1, e2)
		}
	}

	// A different fault seed injects a different universe.
	other := transport.Chain(world.Registry.Source(), transport.Fault(transport.FaultModel{Seed: 100, Timeout: 0.25, ServFail: 0.1}))
	r2, err := resolver.New(other, resolver.Config{Roots: world.Registry.RootServers(), RetryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	w2 := resolver.NewWalker(r2)
	diverged := false
	for _, n := range world.Corpus {
		_, err := w2.WalkName(ctx, n)
		if (err != nil) != (failed1[n] != nil) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("fault seeds 99 and 100 produced identical outcomes across the whole corpus")
	}
}
