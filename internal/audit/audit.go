// Package audit implements the "stopgap measure" the paper's §5 calls
// for: a diligence tool that tells a name owner where their transitive
// trust actually goes and which dependencies are dangerous. It inspects
// a survey dataset and reports findings — oversized TCBs, exploitable
// dependencies, narrow bottlenecks, glue-less cycles, single-server
// zones, and trust extended across administrative boundaries.
package audit

import (
	"fmt"
	"sort"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/dnsname"
)

// Severity grades a finding.
type Severity int

const (
	// Info findings describe trust posture without implying a defect.
	Info Severity = iota
	// Warning findings deserve administrator attention.
	Warning
	// Critical findings enable hijacks with published exploits.
	Critical
)

func (s Severity) String() string {
	switch s {
	case Critical:
		return "CRITICAL"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// Kind classifies a finding.
type Kind int

const (
	// KindExcessiveTCB: the name depends on more servers than the policy
	// threshold.
	KindExcessiveTCB Kind = iota
	// KindVulnerableDependency: a TCB member has known exploits.
	KindVulnerableDependency
	// KindVulnerableBottleneck: the complete-hijack min-cut consists
	// entirely (or nearly) of exploitable servers.
	KindVulnerableBottleneck
	// KindNarrowBottleneck: very few servers fully control the name.
	KindNarrowBottleneck
	// KindExternalTrust: the name's own NS set lives entirely outside
	// the owner's administrative domain.
	KindExternalTrust
	// KindSingleServerZone: a zone on the chain has one nameserver.
	KindSingleServerZone
	// KindUnresolvableNS: a nameserver host on the chain failed to
	// resolve during the crawl (lame or glue-less cycle).
	KindUnresolvableNS
	// KindCrossTLDDependency: the delegation chain crosses into zones
	// under other top-level domains (the small-world effect).
	KindCrossTLDDependency
)

func (k Kind) String() string {
	switch k {
	case KindExcessiveTCB:
		return "excessive-tcb"
	case KindVulnerableDependency:
		return "vulnerable-dependency"
	case KindVulnerableBottleneck:
		return "vulnerable-bottleneck"
	case KindNarrowBottleneck:
		return "narrow-bottleneck"
	case KindExternalTrust:
		return "external-trust"
	case KindSingleServerZone:
		return "single-server-zone"
	case KindUnresolvableNS:
		return "unresolvable-nameserver"
	default:
		return "cross-tld-dependency"
	}
}

// Finding is one audit observation.
type Finding struct {
	Severity Severity
	Kind     Kind
	// Subject is the zone, server or name the finding concerns.
	Subject string
	// Detail is a human-readable explanation.
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", f.Severity, f.Kind, f.Subject, f.Detail)
}

// Policy sets the audit thresholds. The zero value takes defaults
// informed by the paper's measurements.
type Policy struct {
	// MaxTCB flags names whose TCB exceeds this size (default 100: the
	// paper's 90th-ish percentile).
	MaxTCB int
	// MinBottleneck flags names completely controllable by fewer than
	// this many servers (default 2).
	MinBottleneck int
}

func (p *Policy) applyDefaults() {
	if p.MaxTCB == 0 {
		p.MaxTCB = 100
	}
	if p.MinBottleneck == 0 {
		p.MinBottleneck = 2
	}
}

// Name audits one surveyed name's trust posture.
func Name(s *crawler.Survey, name string, policy Policy) ([]Finding, error) {
	policy.applyDefaults()
	name = dnsname.Canonical(name)
	g := s.Graph
	tcb, err := g.TCB(name)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	add := func(sev Severity, kind Kind, subject, format string, args ...any) {
		findings = append(findings, Finding{
			Severity: sev, Kind: kind, Subject: subject,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// TCB size.
	if len(tcb) > policy.MaxTCB {
		add(Warning, KindExcessiveTCB, name,
			"trusted computing base has %d nameservers (policy: %d); every one can affect resolution",
			len(tcb), policy.MaxTCB)
	}

	// Vulnerable dependencies.
	var vulnerable []string
	for _, h := range tcb {
		if s.Vulnerable(h) {
			vulnerable = append(vulnerable, h)
		}
	}
	for _, h := range vulnerable {
		var names []string
		for _, v := range s.Vulns(h) {
			names = append(names, v.Name)
		}
		add(Critical, KindVulnerableDependency, h,
			"dependency runs %s with published exploits %v", s.Banner(h), names)
	}

	// Bottleneck analysis.
	res, err := analysis.BottleneckOf(s, name)
	if err == nil {
		if res.Size < policy.MinBottleneck {
			add(Warning, KindNarrowBottleneck, name,
				"complete hijack requires only %d server(s): %v", res.Size, res.Cut)
		}
		switch {
		case res.SafeInCut == 0 && res.VulnInCut > 0:
			add(Critical, KindVulnerableBottleneck, name,
				"a complete hijack needs only the %d exploitable server(s) %v — scripted attacks suffice",
				res.VulnInCut, res.Cut)
		case res.SafeInCut == 1 && res.VulnInCut > 0:
			add(Warning, KindVulnerableBottleneck, name,
				"one denial-of-service plus %d exploit(s) completely hijack this name", res.VulnInCut)
		}
	}

	// External trust: the owner's own NS set.
	direct, err := g.DirectNS(name)
	if err == nil {
		rd, rdErr := dnsname.RegisteredDomain(name)
		external := 0
		for _, h := range direct {
			hrd, err := dnsname.RegisteredDomain(h)
			if rdErr != nil || err != nil || hrd != rd {
				external++
			}
		}
		if external == len(direct) && len(direct) > 0 {
			add(Info, KindExternalTrust, name,
				"all %d directly trusted nameservers are operated by third parties", len(direct))
		}
	}

	// Per-zone structure on the reachable graph.
	zoneIDs, err := g.ReachableZoneIDs(name)
	if err == nil {
		tlds := map[string]bool{}
		for _, z := range zoneIDs {
			apex := g.Zones()[z]
			if len(g.ZoneNS(apex)) == 1 {
				add(Warning, KindSingleServerZone, apex,
					"zone on the delegation graph has a single nameserver (no failure or attack tolerance)")
			}
			tlds[dnsname.TLD(apex)] = true
		}
		if len(tlds) > 2 {
			var list []string
			for t := range tlds {
				list = append(list, t)
			}
			sort.Strings(list)
			add(Info, KindCrossTLDDependency, name,
				"delegation graph spans %d top-level domains %v", len(tlds), list)
		}
	}

	// Unresolvable nameservers recorded by the crawl.
	for host, cerr := range s.Failed {
		for _, h := range tcb {
			if h == host {
				add(Warning, KindUnresolvableNS, host,
					"nameserver failed to resolve during the crawl: %v", cerr)
			}
		}
	}

	sort.SliceStable(findings, func(i, j int) bool {
		return findings[i].Severity > findings[j].Severity
	})
	return findings, nil
}

// Worst returns the highest severity among findings (Info when empty).
func Worst(findings []Finding) Severity {
	worst := Info
	for _, f := range findings {
		if f.Severity > worst {
			worst = f.Severity
		}
	}
	return worst
}
