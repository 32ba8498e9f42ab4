package analysis

import (
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
)

// Summary carries the paper's headline in-text numbers.
type Summary struct {
	// Names surveyed successfully.
	Names int
	// Servers discovered (the paper's 166771).
	Servers int
	// VulnerableServers have known exploits (the paper's 27141, 17%).
	VulnerableServers int
	// AffectedNames have >= 1 vulnerable TCB member (the paper's 264599, 45%).
	AffectedNames int
	// TCB is the distribution of TCB sizes (mean 46, median 26).
	TCB *CDF
	// VulnPerTCB is the distribution of vulnerable-server counts per TCB
	// (mean 4.1).
	VulnPerTCB *CDF
	// DirectMean is the mean number of directly trusted servers (the NS
	// set of the name's own zone) — the paper's 2.2; the rest of the TCB
	// is transitive trust.
	DirectMean float64
	// OwnedMean is the mean number of TCB servers inside the name's own
	// registered domain (in-bailiwick operation).
	OwnedMean float64
}

// Summarize computes the headline statistics over the given names.
func Summarize(s *crawler.Survey, names []string) *Summary {
	return SummarizeMemo(s, names, nil)
}

// SummarizeMemo is Summarize through a persistent chain memo: the
// per-chain vulnerability scan is served from (and feeds) the memo, so
// repeated summaries of a monitored survey touch each distinct chain's
// TCB once across all generations that leave it untouched. memo may be
// nil.
func SummarizeMemo(s *crawler.Survey, names []string, memo *ChainMemo) *Summary {
	sizes := TCBSizes(s, names)
	vulns := VulnInTCBMemo(s, names, memo)

	// Direct-NS counts depend only on the interned chain; owned counts on
	// (chain, registered domain). Memoizing on those keys makes this pass
	// touch each distinct chain's TCB once instead of once per name.
	g := s.Graph
	directByChain := map[int32]int{}
	type ownKey struct {
		cid int32
		rd  string
	}
	ownedByChainRD := map[ownKey]int{}
	// Each TCB member's registered domain is resolved once per pass, not
	// once per (chain, registered-domain) pair it is compared under.
	const unasked, none = "", "."
	hostRD := make([]string, g.NumHosts())

	var ownedSum, directSum float64
	counted := 0
	for _, n := range names {
		cid, ok := g.NameChainID(n)
		if !ok {
			continue
		}
		chain := g.ChainZoneIDs(cid)
		if len(chain) == 0 {
			continue
		}
		direct, ok := directByChain[cid]
		if !ok {
			direct = len(g.ZoneNSIDs(chain[len(chain)-1]))
			directByChain[cid] = direct
		}
		owned := 0
		if rd, err := dnsname.RegisteredDomain(n); err == nil {
			key := ownKey{cid: cid, rd: rd}
			owned, ok = ownedByChainRD[key]
			if !ok {
				for _, id := range g.ChainTCBIDs(cid) {
					if hostRD[id] == unasked {
						hostRD[id] = none
						if hrd, err2 := dnsname.RegisteredDomain(g.Host(id)); err2 == nil {
							hostRD[id] = hrd
						}
					}
					if hostRD[id] == rd {
						owned++
					}
				}
				ownedByChainRD[key] = owned
			}
		}
		ownedSum += float64(owned)
		directSum += float64(direct)
		counted++
	}
	ownedMean, directMean := 0.0, 0.0
	if counted > 0 {
		ownedMean = ownedSum / float64(counted)
		directMean = directSum / float64(counted)
	}

	affected := 0
	for _, v := range vulns {
		if v > 0 {
			affected++
		}
	}

	return &Summary{
		Names:             len(sizes),
		Servers:           s.Graph.NumHosts(),
		VulnerableServers: s.VulnerableHosts(),
		AffectedNames:     affected,
		TCB:               NewCDF(sizes),
		VulnPerTCB:        NewCDF(vulns),
		DirectMean:        directMean,
		OwnedMean:         ownedMean,
	}
}
