// Package verdict turns the monitor's transitive-trust measurements into
// wire-speed policy decisions. A Verdict classifies one name as allow,
// flag, or refuse based on the size of its trusted computing base, the
// width of its delegation bottleneck, and the presence of vulnerable or
// outright hijackable servers in its chain — the enforcement point the
// paper's offline measurement implies: somewhere a resolver must turn
// "this chain is too trusting" into an answer-path decision.
//
// Evaluate computes a single verdict against a survey; Cache (cache.go)
// memoizes verdicts per name in 64 read-locked map shards and keeps them
// consistent across generation commits.
package verdict

import (
	"strings"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
	"dnstrust/internal/vulndb"
)

// Level is the policy outcome for a name.
type Level uint8

const (
	// Allow serves the answer silently.
	Allow Level = iota
	// Flag serves the answer but logs the concern.
	Flag
	// Refuse answers REFUSED without contacting upstream.
	Refuse
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case Allow:
		return "allow"
	case Flag:
		return "flag"
	case Refuse:
		return "refuse"
	}
	return "invalid"
}

// Reason is a bitmask of the findings behind a verdict.
type Reason uint16

const (
	// ReasonUnknown marks a name the monitor has never surveyed; the
	// verdict is provisional and the name is queued for a crawl.
	ReasonUnknown Reason = 1 << iota
	// ReasonUnresolved marks a name the crawler tried and failed to walk.
	ReasonUnresolved
	// ReasonExcessiveTCB marks a trusted computing base above Policy.MaxTCB.
	ReasonExcessiveTCB
	// ReasonNarrowCut marks a delegation bottleneck of Policy.NarrowCut
	// or fewer servers.
	ReasonNarrowCut
	// ReasonVulnerable marks a DoS-class vulnerable server in the TCB.
	ReasonVulnerable
	// ReasonCompromisable marks a hijackable (exec- or poison-class
	// vulnerable) server in the TCB.
	ReasonCompromisable
	// ReasonVulnerableCut marks a minimum cut made up entirely of
	// vulnerable servers: one exploit sweep controls the name.
	ReasonVulnerableCut
)

var reasonNames = []struct {
	bit  Reason
	name string
}{
	{ReasonUnknown, "unknown"},
	{ReasonUnresolved, "unresolved"},
	{ReasonExcessiveTCB, "excessive-tcb"},
	{ReasonNarrowCut, "narrow-cut"},
	{ReasonVulnerable, "vulnerable-dependency"},
	{ReasonCompromisable, "compromisable-dependency"},
	{ReasonVulnerableCut, "vulnerable-cut"},
}

// Strings expands the bitmask into stable reason labels.
func (r Reason) Strings() []string {
	var out []string
	for _, rn := range reasonNames {
		if r&rn.bit != 0 {
			out = append(out, rn.name)
		}
	}
	return out
}

// String joins the reason labels with commas ("" for an empty mask).
func (r Reason) String() string { return strings.Join(r.Strings(), ",") }

// Policy sets the thresholds that map measurements to levels.
//
// The level logic mirrors the audit package's severity taxonomy:
// hijackable dependencies and all-vulnerable cuts refuse (an attacker
// who runs the listed exploit controls the answer), while size and
// width concerns — and names the monitor cannot yet vouch for — only
// flag, because they measure exposure, not a live compromise.
type Policy struct {
	// MaxTCB flags names whose trusted computing base exceeds this many
	// servers. Zero means the paper-calibrated default (100, the tail
	// the paper calls out); negative disables the check.
	MaxTCB int
	// NarrowCut flags names whose minimum delegation cut is this many
	// servers or fewer. Zero means the default (1: a single point of
	// subversion); negative disables the check.
	NarrowCut int
	// FlagOnly downgrades every Refuse to Flag — monitor mode for
	// operators who want the log stream before they trust the policy
	// with user traffic.
	FlagOnly bool
}

func (p Policy) withDefaults() Policy {
	if p.MaxTCB == 0 {
		p.MaxTCB = 100
	}
	if p.NarrowCut == 0 {
		p.NarrowCut = 1
	}
	return p
}

// Verdict is one immutable policy decision. Instances are shared across
// goroutines by the cache and must never be mutated after Evaluate.
type Verdict struct {
	// Name is the canonical name the verdict is for.
	Name string
	// Level is the policy outcome.
	Level Level
	// Reasons is the bitmask of findings behind the level.
	Reasons Reason
	// Generation stamps the survey generation the verdict was computed
	// from.
	Generation int64
	// TCBSize is the trusted computing base size, -1 when unknown.
	TCBSize int
	// Cut is the minimum delegation cut size, -1 when not computable.
	Cut int
	// SafeInCut is the number of non-vulnerable servers in that cut,
	// -1 when not computable.
	SafeInCut int
	// Provisional marks a verdict issued before the name was ever
	// surveyed; a crawl has been queued and the next lookup after it
	// lands sees the real verdict.
	Provisional bool
}

// Evaluate computes the verdict for name against one survey. The memo
// amortizes min-cut computations across names sharing a chain and across
// generations; it must be safe for concurrent use (analysis.ChainMemo is).
func Evaluate(s *crawler.Survey, memo *analysis.ChainMemo, p Policy, name string) *Verdict {
	p = p.withDefaults()
	name = dnsname.Canonical(name)
	v := &Verdict{
		Name:       name,
		Generation: s.Stats.Generation,
		TCBSize:    -1,
		Cut:        -1,
		SafeInCut:  -1,
	}

	tcb, err := s.Graph.TCBIDs(name)
	if err != nil {
		if _, failed := s.Failed[name]; failed {
			v.Reasons |= ReasonUnresolved
		} else {
			v.Reasons |= ReasonUnknown
			v.Provisional = true
		}
		v.Level = Flag
		return v
	}

	v.TCBSize = len(tcb)
	for _, hid := range tcb {
		if vs := s.HostVulns(hid); vulndb.Compromisable(vs) {
			v.Reasons |= ReasonCompromisable
		} else if len(vs) > 0 {
			v.Reasons |= ReasonVulnerable
		}
	}
	if p.MaxTCB > 0 && v.TCBSize > p.MaxTCB {
		v.Reasons |= ReasonExcessiveTCB
	}
	if res, err := analysis.BottleneckOfMemo(s, name, memo); err == nil {
		v.Cut = res.Size
		v.SafeInCut = res.SafeInCut
		if p.NarrowCut > 0 && res.Size <= p.NarrowCut {
			v.Reasons |= ReasonNarrowCut
		}
		if res.Size > 0 && res.SafeInCut == 0 && res.VulnInCut > 0 {
			v.Reasons |= ReasonVulnerableCut
		}
	}

	switch {
	case v.Reasons&(ReasonCompromisable|ReasonVulnerableCut) != 0:
		v.Level = Refuse
		if p.FlagOnly {
			v.Level = Flag
		}
	case v.Reasons != 0:
		v.Level = Flag
	default:
		v.Level = Allow
	}
	return v
}
