package analysis

import (
	"math"
	"sort"

	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
)

// ControlEntry is one ranked server of Figure 8/9: how many surveyed
// names the server participates in resolving ("controls").
type ControlEntry struct {
	Host       string
	Names      int
	Vulnerable bool
}

// ControlStats ranks every nameserver by the number of names it controls.
type ControlStats struct {
	// Ranked is sorted by decreasing control (ties by host name).
	Ranked []ControlEntry
	// TotalNames is the number of surveyed names counted.
	TotalNames int
}

// Control computes names-controlled per server over the given names —
// the raw data of Figure 8. A server "controls" a name when it appears
// in the name's TCB. Names are first bucketed by interned chain id, so
// each chain's (shared) TCB slice is walked once, weighted by how many
// of the given names ride it.
func Control(s *crawler.Survey, names []string) *ControlStats {
	perChain := make([]int, s.Graph.NumChains())
	total := 0
	for _, cid := range chainIDs(s.Graph, names) {
		if cid < 0 {
			continue
		}
		total++
		perChain[cid]++
	}
	counts := make([]int, s.Graph.NumHosts())
	for cid, weight := range perChain {
		if weight == 0 {
			continue
		}
		for _, id := range s.Graph.ChainTCBIDs(int32(cid)) {
			counts[id] += weight
		}
	}
	hosts := s.Graph.Hosts()
	ranked := make([]ControlEntry, 0, len(hosts))
	for id, host := range hosts {
		ranked = append(ranked, ControlEntry{
			Host:       host,
			Names:      counts[id],
			Vulnerable: len(s.HostVulns(int32(id))) > 0,
		})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Names != ranked[j].Names {
			return ranked[i].Names > ranked[j].Names
		}
		return ranked[i].Host < ranked[j].Host
	})
	return &ControlStats{Ranked: ranked, TotalNames: total}
}

// MeanControl returns the average number of names controlled per server
// (the paper's "an average nameserver is involved in the resolution of
// 166 externally visible names").
func (c *ControlStats) MeanControl() float64 {
	if len(c.Ranked) == 0 {
		return 0
	}
	var sum float64
	for _, e := range c.Ranked {
		sum += float64(e.Names)
	}
	return sum / float64(len(c.Ranked))
}

// MedianControl returns the median names-controlled (the paper's 4).
func (c *ControlStats) MedianControl() int {
	if len(c.Ranked) == 0 {
		return 0
	}
	xs := make([]int, len(c.Ranked))
	for i, e := range c.Ranked {
		xs[i] = e.Names
	}
	sort.Ints(xs)
	return xs[len(xs)/2]
}

// ControllingAtLeast returns the servers controlling more than the given
// fraction of all surveyed names (the paper's "about 125 nameservers each
// control more than 10% of the surveyed names").
func (c *ControlStats) ControllingAtLeast(frac float64) []ControlEntry {
	threshold := int(frac * float64(c.TotalNames))
	var out []ControlEntry
	for _, e := range c.Ranked {
		if e.Names > threshold {
			out = append(out, e)
		} else {
			break // ranked descending
		}
	}
	return out
}

// FilterHostTLD keeps the entries whose host lives under the given TLD —
// Figure 9's .edu and .org serieses.
func (c *ControlStats) FilterHostTLD(tld string) []ControlEntry {
	var out []ControlEntry
	for _, e := range c.Ranked {
		if dnsname.TLD(e.Host) == tld {
			out = append(out, e)
		}
	}
	return out
}

// FilterVulnerable keeps the entries with known exploits — Figure 8's
// second series.
func (c *ControlStats) FilterVulnerable() []ControlEntry {
	var out []ControlEntry
	for _, e := range c.Ranked {
		if e.Vulnerable {
			out = append(out, e)
		}
	}
	return out
}

// RankPoint is one (rank, names-controlled) sample of a log-log rank
// curve, 1-indexed.
type RankPoint struct {
	Rank  int
	Names int
}

// RankCurve renders entries as Figure 8/9 points, subsampled
// logarithmically to at most maxPoints.
func RankCurve(entries []ControlEntry, maxPoints int) []RankPoint {
	n := len(entries)
	if n == 0 {
		return nil
	}
	var pts []RankPoint
	emit := func(i int) {
		pts = append(pts, RankPoint{Rank: i + 1, Names: entries[i].Names})
	}
	if maxPoints <= 0 || n <= maxPoints {
		for i := range entries {
			emit(i)
		}
		return pts
	}
	// Log-spaced ranks: the curves are read on log-log axes.
	last := -1
	for k := 0; k < maxPoints; k++ {
		x := float64(k) / float64(maxPoints-1)
		i := int(float64(n-1) * math.Pow(float64(n), x-1)) // log-spaced ranks
		if i <= last {
			i = last + 1
		}
		if i >= n {
			break
		}
		emit(i)
		last = i
	}
	return pts
}
