package analysis

import (
	"context"
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

// SummarizeMemo is Summarize through a persistent chain memo (nil is
// allowed). Over the survey's own name list the memo serves the
// whole-survey aggregate, folded forward from the last generation it
// was asked of: a commit costs the names it touched (see ChainMemo).
// Over any other list — the popular names, say — the pass is the same
// fold from an empty aggregate, with one vulnerability scan per digraph
// class of the names' chains.
//
// The pass runs on interned ids: the names resolve to chain ids once
// (the survey's own list through the graph's chain-id column, with no
// lookup), per-host facts are read from the survey's id-indexed
// column, and each name then costs a few slice reads plus its
// owned-server count.
func SummarizeMemo(s *crawler.Survey, names []string, memo *ChainMemo) *Summary {
	var sum *Summary
	// A Summary has no min-cut to cancel: the error is nil.
	_ = pass(context.Background(), s, names, false, 1, memo, func(a *chainAgg) { sum = a.summary() })
	return sum
}

// ownerIndex lists, per registered domain, the interned hosts inside it
// in id order: a name's owned servers are exactly those of its own
// registered domain's hosts that sit in its TCB. Host ids are stable
// within a store, so an index grows with the store's hosts.
type ownerIndex struct {
	byDomain map[string][]int32
	hosts    int // hosts indexed: ids below it
}

// extend indexes g's hosts not indexed yet.
func (o *ownerIndex) extend(g *core.Graph) {
	hosts := g.Hosts()
	if o.byDomain == nil {
		o.byDomain = make(map[string][]int32, len(hosts))
	}
	for id := o.hosts; id < len(hosts); id++ {
		if rd, err := dnsname.RegisteredDomain(hosts[id]); err == nil {
			o.byDomain[rd] = append(o.byDomain[rd], int32(id))
		}
	}
	o.hosts = max(o.hosts, len(hosts))
}

// count returns how many members of tcb, a sorted host-id set, share
// name's registered domain: each of the domain's few hosts is
// binary-searched in the TCB (or the other way round when the TCB is
// the smaller set).
func (o *ownerIndex) count(name string, tcb []int32) int {
	rd, err := dnsname.RegisteredDomain(name)
	if err != nil {
		return 0
	}
	hosts := o.byDomain[rd]
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
