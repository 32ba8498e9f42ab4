package analysis

import (
	"slices"

	"dnstrust/internal/core"
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
//
// The pass runs on interned ids: the names resolve to chain ids once
// (the survey's own list through the graph's chain-id column, with no
// lookup), per-host facts are read once into id-indexed tables, and each
// name then costs a few slice reads plus its owned-server count.
func SummarizeMemo(s *crawler.Survey, names []string, memo *ChainMemo) *Summary {
	g := s.Graph
	counts := newChainVulnCounts(s, memo)
	owners := newOwnerIndex(g)

	sizes := make([]int, 0, len(names))
	vulns := make([]int, 0, len(names))
	affected, counted, ownedSum, directSum := 0, 0, 0, 0
	for i, cid := range chainIDs(g, names) {
		if cid < 0 {
			continue
		}
		tcb := g.ChainTCBIDs(cid)
		_, vuln := counts.of(cid)
		sizes = append(sizes, len(tcb))
		vulns = append(vulns, vuln)
		if vuln > 0 {
			affected++
		}
		chain := g.ChainZoneIDs(cid)
		if len(chain) == 0 {
			continue
		}
		directSum += len(g.ZoneNSIDs(chain[len(chain)-1]))
		ownedSum += owners.count(names[i], tcb)
		counted++
	}
	ownedMean, directMean := 0.0, 0.0
	if counted > 0 {
		ownedMean = float64(ownedSum) / float64(counted)
		directMean = float64(directSum) / float64(counted)
	}
	vulnerable := 0
	for _, v := range counts.vulnID {
		if v {
			vulnerable++
		}
	}

	return &Summary{
		Names:             len(sizes),
		Servers:           g.NumHosts(),
		VulnerableServers: vulnerable,
		AffectedNames:     affected,
		TCB:               NewCDF(sizes),
		VulnPerTCB:        NewCDF(vulns),
		DirectMean:        directMean,
		OwnedMean:         ownedMean,
	}
}

// ownerIndex lists, per registered domain, the interned hosts inside it
// in id order: a name's owned servers are exactly those of its own
// registered domain's hosts that sit in its TCB.
type ownerIndex map[string][]int32

func newOwnerIndex(g *core.Graph) ownerIndex {
	hosts := g.Hosts()
	idx := make(ownerIndex, len(hosts))
	for id, h := range hosts {
		if rd, err := dnsname.RegisteredDomain(h); err == nil {
			idx[rd] = append(idx[rd], int32(id))
		}
	}
	return idx
}

// count returns how many members of tcb, a sorted host-id set, share
// name's registered domain: each of the domain's few hosts is
// binary-searched in the TCB (or the other way round when the TCB is
// the smaller set).
func (o ownerIndex) count(name string, tcb []int32) int {
	rd, err := dnsname.RegisteredDomain(name)
	if err != nil {
		return 0
	}
	hosts := o[rd]
	if len(hosts) > len(tcb) {
		hosts, tcb = tcb, hosts
	}
	n := 0
	for _, h := range hosts {
		if _, ok := slices.BinarySearch(tcb, h); ok {
			n++
		}
	}
	return n
}
