package analysis

import (
	"sort"

	"dnstrust/internal/core"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
)

// TCBSizes returns |TCB(name)| for each name (Figure 2's raw data).
// Names missing from the survey are skipped.
func TCBSizes(s *crawler.Survey, names []string) []int {
	g := s.Graph
	out := make([]int, 0, len(names))
	for _, cid := range chainIDs(g, names) {
		if cid >= 0 {
			out = append(out, len(g.ChainTCBIDs(cid)))
		}
	}
	return out
}

// chainIDs resolves a name list to interned chain ids, -1 for names not
// in the survey: the one place a whole-survey pass turns names into ids.
// The graph's own sorted list — every survey's Names — maps to its
// chain-id column with no lookup; any other list, such as the popular
// names, pays one lookup per name. The result is read-only.
func chainIDs(g *core.Graph, names []string) []int32 {
	if own := g.Names(); len(names) == len(own) && (len(own) == 0 || &names[0] == &own[0]) {
		return g.NameChainIDs()
	}
	ids := make([]int32, len(names))
	for i, n := range names {
		cid, ok := g.NameChainID(n)
		if !ok {
			cid = -1
		}
		ids[i] = cid
	}
	return ids
}

// TLDAverage is one bar of Figure 3 or 4.
type TLDAverage struct {
	TLD     string
	Kind    dnsname.Kind
	Names   int
	MeanTCB float64
}

// TLDAverages computes the mean TCB size per top-level domain, sorted by
// decreasing mean — the bars of Figures 3 (generic) and 4 (country-code).
func TLDAverages(s *crawler.Survey, names []string) []TLDAverage {
	g := s.Graph
	sum := map[string]float64{}
	cnt := map[string]int{}
	for i, cid := range chainIDs(g, names) {
		if cid < 0 {
			continue
		}
		tld := dnsname.TLD(names[i])
		sum[tld] += float64(len(g.ChainTCBIDs(cid)))
		cnt[tld]++
	}
	out := make([]TLDAverage, 0, len(sum))
	for tld, total := range sum {
		out = append(out, TLDAverage{
			TLD:     tld,
			Kind:    dnsname.KindOf(tld),
			Names:   cnt[tld],
			MeanTCB: total / float64(cnt[tld]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanTCB != out[j].MeanTCB {
			return out[i].MeanTCB > out[j].MeanTCB
		}
		return out[i].TLD < out[j].TLD
	})
	return out
}

// FilterKind keeps the averages of one TLD class.
func FilterKind(avgs []TLDAverage, kind dnsname.Kind) []TLDAverage {
	var out []TLDAverage
	for _, a := range avgs {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// MacroAverage averages per-TLD means (each TLD weighted equally), the
// quantity behind the paper's "gTLD average 87 / ccTLD average 209".
func MacroAverage(avgs []TLDAverage) float64 {
	if len(avgs) == 0 {
		return 0
	}
	var sum float64
	for _, a := range avgs {
		sum += a.MeanTCB
	}
	return sum / float64(len(avgs))
}

// chainVulnCounts computes, per interned chain, the TCB size and the
// number of vulnerable TCB members — each chain's (shared) TCB slice is
// scanned exactly once, and every name on the chain reuses the entry.
// Entries are computed lazily: sizes[c] < 0 marks an untouched chain.
// With a persistent memo attached, entries survive across calls and
// generations: the per-call pass starts from the memo's counts and
// writes fresh ones back.
type chainVulnCounts struct {
	g      *core.Graph
	memo   *ChainMemo
	gen    int64
	vulnID []bool
	sizes  []int
	vulns  []int
}

func newChainVulnCounts(s *crawler.Survey, memo *ChainMemo) *chainVulnCounts {
	n := s.Graph.NumChains()
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = -1
	}
	return &chainVulnCounts{
		g:      s.Graph,
		memo:   memo,
		gen:    s.Stats.Generation,
		vulnID: vulnerableIDs(s),
		sizes:  sizes,
		vulns:  make([]int, n),
	}
}

// of returns (TCB size, vulnerable count) for an interned chain.
func (c *chainVulnCounts) of(cid int32) (size, vuln int) {
	if c.sizes[cid] < 0 {
		if size, vuln, ok := c.memo.count(cid, c.gen); ok {
			c.sizes[cid], c.vulns[cid] = size, vuln
			return size, vuln
		}
		ids := c.g.ChainTCBIDs(cid)
		v := 0
		for _, id := range ids {
			if c.vulnID[id] {
				v++
			}
		}
		c.sizes[cid] = len(ids)
		c.vulns[cid] = v
		c.memo.storeCount(cid, c.gen, len(ids), v)
	}
	return c.sizes[cid], c.vulns[cid]
}

// VulnInTCB returns, per name, the number of TCB members with known
// exploits (Figure 5's raw data).
func VulnInTCB(s *crawler.Survey, names []string) []int {
	return VulnInTCBMemo(s, names, nil)
}

// VulnInTCBMemo is VulnInTCB through a persistent chain memo (nil is
// allowed: dedup within the call only).
func VulnInTCBMemo(s *crawler.Survey, names []string, memo *ChainMemo) []int {
	counts := newChainVulnCounts(s, memo)
	out := make([]int, 0, len(names))
	for _, cid := range chainIDs(s.Graph, names) {
		if cid < 0 {
			continue
		}
		_, v := counts.of(cid)
		out = append(out, v)
	}
	return out
}

// TCBSafety returns, per name, the percentage of TCB members with no
// known exploits (Figure 6's raw data). Names with empty TCBs are
// reported 100% safe.
func TCBSafety(s *crawler.Survey, names []string) []float64 {
	return TCBSafetyMemo(s, names, nil)
}

// TCBSafetyMemo is TCBSafety through a persistent chain memo.
func TCBSafetyMemo(s *crawler.Survey, names []string, memo *ChainMemo) []float64 {
	counts := newChainVulnCounts(s, memo)
	out := make([]float64, 0, len(names))
	for _, cid := range chainIDs(s.Graph, names) {
		if cid < 0 {
			continue
		}
		size, vuln := counts.of(cid)
		if size == 0 {
			out = append(out, 100)
			continue
		}
		out = append(out, 100*float64(size-vuln)/float64(size))
	}
	return out
}

// AffectedNames counts the names with at least one vulnerable TCB member
// (the paper's 264599-of-593160, i.e. 45%).
func AffectedNames(s *crawler.Survey, names []string) int {
	n := 0
	for _, c := range VulnInTCB(s, names) {
		if c > 0 {
			n++
		}
	}
	return n
}

// vulnerableIDs builds a host-id-indexed vulnerability lookup, asking
// the survey once per host.
func vulnerableIDs(s *crawler.Survey) []bool {
	hosts := s.Graph.Hosts()
	out := make([]bool, len(hosts))
	for id, h := range hosts {
		out[id] = s.Vulnerable(h)
	}
	return out
}

// SafetyCurve renders Figure 6: names sorted by TCB safety percentage,
// plotted as (rank percentile, safety%).
type SafetyPoint struct {
	RankPct float64
	Safety  float64
}

// SafetyDistribution sorts the per-name safety percentages ascending and
// samples them (Figure 6's curve).
func SafetyDistribution(safety []float64, maxPoints int) []SafetyPoint {
	cp := make([]float64, len(safety))
	copy(cp, safety)
	sort.Float64s(cp)
	var pts []SafetyPoint
	n := len(cp)
	if n == 0 {
		return nil
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	for i := 0; i < n; i += step {
		pts = append(pts, SafetyPoint{
			RankPct: 100 * float64(i+1) / float64(n),
			Safety:  cp[i],
		})
	}
	return pts
}
