package fleet_test

import (
	"fmt"
	"testing"

	"dnstrust/internal/fleet"
)

// TestRingBalance: over the seed-1 20k corpus every shard of a 2- to
// 8-shard ring owns within ±20% of a fair share. Without the hash
// finalizer a 3-shard ring gave one shard 2.05× its share and another
// 0.21×.
func TestRingBalance(t *testing.T) {
	corpus := genWorld(t, 1, 20000).Corpus
	for _, n := range []int{2, 3, 4, 5, 8} {
		shards := make([]string, n)
		for i := range shards {
			shards[i] = fmt.Sprintf("s%d", i)
		}
		parts := fleet.NewRing(shards, 0).Assign(corpus)
		fair := float64(len(corpus)) / float64(n)
		lo, hi := 2.0, 0.0
		for _, p := range parts {
			share := float64(len(p)) / fair
			lo, hi = min(lo, share), max(hi, share)
		}
		t.Logf("%d shards: share of fair load %.3f–%.3f", n, lo, hi)
		if lo < 0.8 || hi > 1.2 {
			t.Errorf("%d shards: share of fair load %.3f–%.3f, want within 0.8–1.2", n, lo, hi)
		}
	}
}

// TestRingAssignmentGolden pins the owners of fixed names on the
// default three-shard ring. Every running fleet routes by this
// assignment, so a change here re-partitions deployed corpora: it must
// be a deliberate, visible diff.
func TestRingAssignmentGolden(t *testing.T) {
	ring := fleet.NewRing([]string{"s0", "s1", "s2"}, 0)
	golden := map[string]string{
		"www.site0.com":         "s0",
		"www.site1.gov":         "s2",
		"www.fbi.gov":           "s2",
		"www.example.com":       "s1",
		"www.cs.cornell.edu":    "s1",
		"mail.google.com":       "s1",
		"www.site42.net":        "s0",
		"ns1.example.org":       "s0",
		"www.site7.co.uk":       "s2",
		"xn--bcher-kva.example": "s1",
	}
	for name, want := range golden {
		if got := ring.Owner(name); got != want {
			t.Errorf("Owner(%s) = %s, want %s", name, got, want)
		}
	}
}
