package transport

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnstrust/internal/dnswire"
)

// queryCounter is a minimal terminal fake: it counts queries and
// answers each with an authoritative empty success.
type queryCounter struct{ n *int }

func (q queryCounter) Query(_ context.Context, _ netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	*q.n++
	resp := dnswire.NewQuery(1, name, qtype, class).Reply()
	resp.Authoritative = true
	return resp, nil
}

var testAddr = netip.MustParseAddr("192.0.2.1")

// TestChainOrder proves the documented composition order: middleware
// listed first is outermost, so a query passes through the chain in the
// order written.
func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(label string) Middleware {
		return Trace(func(netip.Addr, string, dnswire.Type) {
			order = append(order, label)
		})
	}
	var served int
	src := Chain(From(queryCounter{&served}), tag("outer"), tag("middle"), tag("inner"))
	if _, err := src.Query(context.Background(), testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "middle", "inner"}
	for i, l := range want {
		if i >= len(order) || order[i] != l {
			t.Fatalf("traversal order = %v, want %v", order, want)
		}
	}
	if served != 1 {
		t.Fatalf("terminal served %d queries, want 1", served)
	}
}

// TestFromCloseForwarding: From adapts both Close() error and Close()
// shapes, and a chain's Close reaches the terminal.
func TestFromCloseForwarding(t *testing.T) {
	closed := 0
	src := Chain(From(&closerFake{n: &closed}), Trace(func(netip.Addr, string, dnswire.Type) {}))
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if closed != 1 {
		t.Fatalf("terminal closed %d times, want 1", closed)
	}
}

type closerFake struct{ n *int }

func (c *closerFake) Query(context.Context, netip.Addr, string, dnswire.Type, dnswire.Class) (*dnswire.Message, error) {
	return nil, errors.New("unused")
}

func (c *closerFake) Close() { *c.n++ }

// TestFaultDeterminism: fault decisions are a pure hash of
// (seed, server, name, qtype) — identical across repeated asks and
// changed by the seed.
func TestFaultDeterminism(t *testing.T) {
	model := FaultModel{Seed: 42, Timeout: 0.5}
	var served int
	src := Chain(From(queryCounter{&served}), Fault(model))
	ctx := context.Background()

	outcome := func(src Source, name string) bool {
		_, err := src.Query(ctx, testAddr, name, dnswire.TypeA, dnswire.ClassINET)
		if err != nil && !errors.Is(err, ErrInjectedTimeout) {
			t.Fatalf("unexpected error: %v", err)
		}
		return err == nil
	}

	names := []string{"a.example", "b.example", "c.example", "d.example", "e.example", "f.example", "g.example", "h.example"}
	first := make([]bool, len(names))
	timeouts := 0
	for i, n := range names {
		first[i] = outcome(src, n)
		if !first[i] {
			timeouts++
		}
	}
	if timeouts == 0 || timeouts == len(names) {
		t.Fatalf("Timeout=0.5 faulted %d of %d queries; expected a mix", timeouts, len(names))
	}
	// Re-asking gives identical decisions (retry loops see a stable world).
	for i, n := range names {
		if outcome(src, n) != first[i] {
			t.Fatalf("fault decision for %s changed between asks", n)
		}
	}
	// A different seed gives a different fault universe.
	other := Chain(From(queryCounter{&served}), Fault(FaultModel{Seed: 43, Timeout: 0.5}))
	same := true
	for i, n := range names {
		if outcome(other, n) != first[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 faulted identically across all probes")
	}
}

// TestFaultServFailAndTruncate covers the non-timeout fault classes.
func TestFaultServFailAndTruncate(t *testing.T) {
	ctx := context.Background()
	var served int
	servfail := Chain(From(queryCounter{&served}), Fault(FaultModel{Seed: 7, ServFail: 1}))
	resp, err := servfail.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("ServFail=1 gave %v, %v; want SERVFAIL", resp, err)
	}
	if served != 0 {
		t.Fatalf("injected SERVFAIL consulted the inner source %d times", served)
	}

	trunc := Chain(From(queryCounter{&served}), Fault(FaultModel{Seed: 7, Truncate: 1}))
	resp, err = trunc.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil || !resp.Truncated {
		t.Fatalf("Truncate=1 gave truncated=%v, %v", resp != nil && resp.Truncated, err)
	}
	if served != 1 {
		t.Fatalf("truncation must flag the real response (served=%d)", served)
	}
}

// TestLogRecordReplay: a recorded exchange replays through the codec;
// unrecorded queries fail strict replay with ErrNotRecorded and fall
// through (once) in fallthrough mode.
func TestLogRecordReplay(t *testing.T) {
	ctx := context.Background()
	log := NewLog()
	var served int
	rec := Chain(From(queryCounter{&served}), Record(log))
	if _, err := rec.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 1 {
		t.Fatalf("log has %d entries, want 1", log.Len())
	}

	strict := Replay(log)
	resp, err := strict.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil || !resp.Authoritative {
		t.Fatalf("replayed query = %v, %v", resp, err)
	}
	// A different server still answers (server-agnostic fallback).
	if _, err := strict.Query(ctx, netip.MustParseAddr("192.0.2.99"), "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatalf("wildcard replay failed: %v", err)
	}
	if _, err := strict.Query(ctx, testAddr, "miss.example", dnswire.TypeA, dnswire.ClassINET); !errors.Is(err, ErrNotRecorded) {
		t.Fatalf("strict miss = %v, want ErrNotRecorded", err)
	}

	served = 0
	ft := ReplayThrough(log, From(queryCounter{&served}))
	if _, err := ft.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	if served != 0 || ft.Misses() != 0 {
		t.Fatalf("recorded query fell through (served=%d misses=%d)", served, ft.Misses())
	}
	if _, err := ft.Query(ctx, testAddr, "miss.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	if served != 1 || ft.Misses() != 1 {
		t.Fatalf("miss not delegated exactly once (served=%d misses=%d)", served, ft.Misses())
	}
	// The delta was recorded: asking again stays offline.
	if _, err := ft.Query(ctx, testAddr, "miss.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("recorded delta fell through again (served=%d)", served)
	}
}

// TestLogSuccessReplacesRecordedServFail: when the first-tried server
// answers SERVFAIL and the retry finds the real answer, the log must
// keep the success — otherwise a replayed crawl would see SERVFAIL from
// every server and fail a walk the recorded crawl completed.
func TestLogSuccessReplacesRecordedServFail(t *testing.T) {
	ctx := context.Background()
	log := NewLog()
	var served int
	// Record sits above Fault (as OpenWorld composes it), so it observes
	// the injected SERVFAIL.
	servfail := Chain(From(queryCounter{&served}), Record(log), Fault(FaultModel{Seed: 7, ServFail: 1}))
	if _, err := servfail.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	// The retry against another server succeeds and must win.
	ok := Chain(From(queryCounter{&served}), Record(log))
	if _, err := ok.Query(ctx, netip.MustParseAddr("192.0.2.2"), "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	resp, err := Replay(log).Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("replayed RCode = %v, want the successful retry's answer", resp.RCode)
	}
	// The reverse direction: a later SERVFAIL must not displace success.
	if _, err := servfail.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	resp, err = Replay(log).Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil || resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("success displaced by a later SERVFAIL (%v, %v)", resp, err)
	}
}

// TestFallthroughRetriesRecordedFailure: a question the log holds only a
// SERVFAIL for is a miss to a fallthrough replay — delegated once, and
// served offline from the real answer after that — while strict replay
// still serves the recorded SERVFAIL. A resumed crawl must see a
// dependency that was lame and has recovered.
func TestFallthroughRetriesRecordedFailure(t *testing.T) {
	ctx := context.Background()
	log := NewLog()
	var served int
	servfail := Chain(From(queryCounter{&served}), Record(log), Fault(FaultModel{Seed: 7, ServFail: 1}))
	if _, err := servfail.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	resp, err := Replay(log).Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
	if err != nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("strict replay of a recorded SERVFAIL = %v, %v; want the SERVFAIL", resp, err)
	}

	ft := ReplayThrough(log, From(queryCounter{&served}))
	for i := 0; i < 2; i++ {
		resp, err := ft.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET)
		if err != nil || resp.RCode != dnswire.RCodeSuccess {
			t.Fatalf("fallthrough ask %d = %v, %v; want the terminal's success", i, resp, err)
		}
	}
	if ft.Misses() != 1 || served != 1 {
		t.Fatalf("recorded SERVFAIL delegated %d times (served %d), want once", ft.Misses(), served)
	}
}

// bannerSource answers CHAOS version.bind with a per-server banner.
type bannerSource struct{}

func (bannerSource) Query(_ context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	resp := dnswire.NewQuery(1, name, qtype, class).Reply()
	resp.Authoritative = true
	resp.Answers = []dnswire.RR{{
		Name: name, Class: class,
		Data: dnswire.TXT{Text: []string{"BIND on " + server.String()}},
	}}
	return resp, nil
}

// TestLogRecordsChaosPerServer: version.bind banners differ per box, so
// CHAOS records key by server — each server replays its own banner and
// an unprobed server is a strict miss (read back as banner-hidden).
func TestLogRecordsChaosPerServer(t *testing.T) {
	ctx := context.Background()
	log := NewLog()
	rec := Chain(From(bannerSource{}), Record(log))
	a, b := testAddr, netip.MustParseAddr("192.0.2.2")
	for _, s := range []netip.Addr{a, b} {
		if _, err := VersionBind(ctx, rec, s); err != nil {
			t.Fatal(err)
		}
	}
	strict := Replay(log)
	for _, s := range []netip.Addr{a, b} {
		banner, err := VersionBind(ctx, strict, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := "BIND on " + s.String(); banner != want {
			t.Fatalf("replayed banner for %v = %q, want %q", s, banner, want)
		}
	}
	if _, err := VersionBind(ctx, strict, netip.MustParseAddr("192.0.2.99")); !errors.Is(err, ErrNotRecorded) {
		t.Fatalf("unprobed server = %v, want ErrNotRecorded", err)
	}
}

// TestLogSaveLoadRoundTrip: Save∘Load preserves every record and
// re-saving yields byte-identical output (the diffability guarantee).
func TestLogSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	log := NewLog()
	var served int
	rec := Chain(From(queryCounter{&served}), Record(log))
	servers := []netip.Addr{testAddr, netip.MustParseAddr("192.0.2.2")}
	for _, s := range servers {
		for _, name := range []string{"a.example", "b.example"} {
			if _, err := rec.Query(ctx, s, name, dnswire.TypeA, dnswire.ClassINET); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf1 bytes.Buffer
	n1, err := log.Save(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("nothing saved")
	}

	loaded := NewLog()
	ln, err := loaded.Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ln != n1 {
		t.Fatalf("loaded %d of %d records", ln, n1)
	}
	var buf2 bytes.Buffer
	if _, err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("Save∘Load∘Save is not byte-stable")
	}

	// The reloaded log replays the per-server and fallback paths.
	strict := Replay(loaded)
	if _, err := strict.Query(ctx, servers[1], "a.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatalf("reloaded replay failed: %v", err)
	}
	if _, err := strict.Query(ctx, netip.MustParseAddr("192.0.2.77"), "b.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatalf("reloaded wildcard replay failed: %v", err)
	}
}

// TestLatencyMiddleware: queries wait the model's RTT and honor
// cancellation mid-wait.
func TestLatencyMiddleware(t *testing.T) {
	var served int
	src := Chain(From(queryCounter{&served}), Latency(FixedRTT(5*time.Millisecond)))
	start := time.Now()
	if _, err := src.Query(context.Background(), testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("query returned after %v, want >= 5ms", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.Query(ctx, testAddr, "x.example", dnswire.TypeA, dnswire.ClassINET); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency wait = %v, want context.Canceled", err)
	}
}
