package dnsname_test

import (
	"testing"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/topology"
)

// TestRegisteredDomainZeroAllocs: on a generated survey corpus,
// EffectiveTLD and RegisteredDomain return substrings of their input and
// allocate nothing — the Summary pass calls them once per name.
func TestRegisteredDomainZeroAllocs(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 1, Names: 2000})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, n := range world.Corpus {
			_ = dnsname.EffectiveTLD(n)
			_, _ = dnsname.RegisteredDomain(n)
		}
	})
	if allocs != 0 {
		t.Errorf("EffectiveTLD+RegisteredDomain over %d corpus names allocate %.1f times per run, want 0", len(world.Corpus), allocs)
	}
}
