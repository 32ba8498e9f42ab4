package resolver

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnstrust/internal/dnswire"
)

// fakeClock drives the pacing middleware deterministically: sleep
// advances the clock instead of blocking, recording every delay.
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(_ context.Context, d time.Duration) error {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
	return nil
}

// TestDispatchZoneRateOverride checks the dispatch wiring end to end: the
// server loop does not pace itself — it tags each dispatch with the queried
// zone and the transport.RateLimit middleware (installed by New from the
// rate config) paces at that zone's etiquette — so a dispatch addressed
// to a zone with a high override waits at the override rate while the
// default zone waits at the conservative default, on one fake clock.
func TestDispatchZoneRateOverride(t *testing.T) {
	clk := newFakeClock()
	r, err := New(errTransport{err: errors.New("refused")}, Config{
		Roots:             []ServerAddr{{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}},
		QueriesPerSec:     1,
		ZoneQueriesPerSec: map[string]float64{"com": 500, "quiet.example": -1},
		rateNow:           clk.now,
		rateSleep:         clk.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Each case queries one box twice (two ServerAddr entries sharing an
	// address drain one bucket); a fresh address per case keeps the
	// buckets independent.
	serversAt := func(ip string) []ServerAddr {
		return []ServerAddr{
			{Host: "s1", Addr: netip.MustParseAddr(ip)},
			{Host: "s2", Addr: netip.MustParseAddr(ip)},
		}
	}

	// Zone "com" carries the 500 qps override: the second attempt waits
	// ~2ms instead of ~1s.
	r.dispatch(ctx, "com", serversAt("192.0.2.1"), "x.com", dnswire.TypeA)
	if len(clk.sleeps) != 1 || clk.sleeps[0] > 3*time.Millisecond {
		t.Fatalf("com-paced sleeps = %v, want one ~2ms wait", clk.sleeps)
	}

	// An unlisted zone falls back to the 1 qps default.
	clk.sleeps = nil
	r.dispatch(ctx, "example.net", serversAt("192.0.2.2"), "x.example.net", dnswire.TypeA)
	if len(clk.sleeps) != 1 || clk.sleeps[0] < 500*time.Millisecond {
		t.Fatalf("default-paced sleeps = %v, want one ~1s wait", clk.sleeps)
	}

	// A zone with a non-positive override is unpaced entirely.
	clk.sleeps = nil
	r.dispatch(ctx, "quiet.example", serversAt("192.0.2.3"), "x.quiet.example", dnswire.TypeA)
	if len(clk.sleeps) != 0 {
		t.Fatalf("disabled-zone dispatch slept: %v", clk.sleeps)
	}
}
