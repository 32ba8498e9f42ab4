// Package dnszone models authoritative DNS zones: RRsets, SOA, child
// delegations with glue, and the RFC 1034 §4.3.2 lookup algorithm that
// authoritative servers run (answer, referral, NXDOMAIN, NODATA, CNAME).
package dnszone

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
)

// Zone holds the authoritative data for one zone. A Zone is safe for
// concurrent lookups once built; mutation and lookup must not race.
type Zone struct {
	mu sync.RWMutex

	// origin is the canonical apex name of the zone.
	origin string
	// soa is the zone's SOA record data.
	soa dnswire.SOA
	// records maps owner name -> type -> RRs for authoritative data.
	records map[string]map[dnswire.Type][]dnswire.RR
	// cuts maps a delegated child zone apex -> its NS records. Data at or
	// below a cut is not authoritative in this zone (it is glue).
	cuts map[string][]dnswire.RR
	// glue maps host name -> address RRs attached beneath a cut.
	glue map[string][]dnswire.RR
}

// DefaultTTL is used for records added without an explicit TTL.
const DefaultTTL = 86400

// New creates an empty zone rooted at origin with a conventional SOA.
func New(origin string) *Zone {
	origin = dnsname.Canonical(origin)
	z := &Zone{
		origin:  origin,
		records: make(map[string]map[dnswire.Type][]dnswire.RR),
		cuts:    make(map[string][]dnswire.RR),
		glue:    make(map[string][]dnswire.RR),
	}
	z.soa = dnswire.SOA{
		MName:   dnsname.Join("ns1", origin),
		RName:   dnsname.Join("hostmaster", origin),
		Serial:  2004072200, // the survey snapshot date
		Refresh: 7200, Retry: 1800, Expire: 604800, Minimum: 300,
	}
	return z
}

// Origin returns the canonical zone apex.
func (z *Zone) Origin() string { return z.origin }

// SOA returns the zone's SOA payload.
func (z *Zone) SOA() dnswire.SOA {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soa
}

// AddRR adds an authoritative record. The owner must be at or below the
// zone origin and must not lie at or below an existing delegation cut.
func (z *Zone) AddRR(rr dnswire.RR) error {
	rr.Name = dnsname.Canonical(rr.Name)
	if !dnsname.IsSubdomain(rr.Name, z.origin) {
		return fmt.Errorf("dnszone: %q is outside zone %q", rr.Name, z.origin)
	}
	if rr.Data == nil {
		return fmt.Errorf("dnszone: record %q has no data", rr.Name)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if cut := z.cutCoveringLocked(rr.Name); cut != "" && rr.Name != z.origin {
		return fmt.Errorf("dnszone: %q lies beneath delegation cut %q; add glue instead", rr.Name, cut)
	}
	byType := z.records[rr.Name]
	if byType == nil {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.records[rr.Name] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
	return nil
}

// MustAddRR adds a record and panics on error; for use in builders whose
// inputs are program constants.
func (z *Zone) MustAddRR(rr dnswire.RR) {
	if err := z.AddRR(rr); err != nil {
		panic(err)
	}
}

// AddNS declares hostname as an authoritative nameserver of this zone
// (an NS record at the apex).
func (z *Zone) AddNS(host string) {
	z.MustAddRR(dnswire.RR{
		Name: z.origin, Class: dnswire.ClassINET, TTL: DefaultTTL,
		Data: dnswire.NS{Host: dnsname.Canonical(host)},
	})
}

// AddAddress attaches an A or AAAA record for an in-zone host.
func (z *Zone) AddAddress(host string, addr netip.Addr) error {
	var data dnswire.RData
	if addr.Is4() {
		data = dnswire.A{Addr: addr}
	} else {
		data = dnswire.AAAA{Addr: addr}
	}
	return z.AddRR(dnswire.RR{
		Name: dnsname.Canonical(host), Class: dnswire.ClassINET,
		TTL: DefaultTTL, Data: data,
	})
}

// Delegate records a zone cut: child (a subdomain of this zone) is served
// by the given nameserver host names. Glue addresses for in-bailiwick
// hosts should be added with AddGlue.
func (z *Zone) Delegate(child string, hosts ...string) error {
	child = dnsname.Canonical(child)
	if child == z.origin || !dnsname.IsSubdomain(child, z.origin) {
		return fmt.Errorf("dnszone: cannot delegate %q from zone %q", child, z.origin)
	}
	if len(hosts) == 0 {
		return fmt.Errorf("dnszone: delegation of %q needs at least one nameserver", child)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	rrs := make([]dnswire.RR, 0, len(hosts))
	for _, h := range hosts {
		rrs = append(rrs, dnswire.RR{
			Name: child, Class: dnswire.ClassINET, TTL: DefaultTTL,
			Data: dnswire.NS{Host: dnsname.Canonical(h)},
		})
	}
	z.cuts[child] = rrs
	return nil
}

// AddGlue attaches a glue address record for a nameserver host that lives
// at or below one of this zone's delegation cuts.
func (z *Zone) AddGlue(host string, addr netip.Addr) error {
	host = dnsname.Canonical(host)
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.cutCoveringLocked(host) == "" {
		return fmt.Errorf("dnszone: glue %q is not beneath any delegation cut of %q", host, z.origin)
	}
	var data dnswire.RData
	if addr.Is4() {
		data = dnswire.A{Addr: addr}
	} else {
		data = dnswire.AAAA{Addr: addr}
	}
	z.glue[host] = append(z.glue[host], dnswire.RR{
		Name: host, Class: dnswire.ClassINET, TTL: DefaultTTL, Data: data,
	})
	return nil
}

// cutCoveringLocked returns the delegation cut at or above name, or "".
func (z *Zone) cutCoveringLocked(name string) string {
	for _, anc := range dnsname.Ancestors(name) {
		if anc == z.origin {
			break
		}
		if !dnsname.IsSubdomain(anc, z.origin) {
			break
		}
		if _, ok := z.cuts[anc]; ok {
			return anc
		}
	}
	return ""
}

// Cuts returns the delegated child apexes in sorted order.
func (z *Zone) Cuts() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.cuts))
	for c := range z.cuts {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// NSHosts returns the host names of this zone's apex NS records, sorted.
func (z *Zone) NSHosts() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []string
	for _, rr := range z.records[z.origin][dnswire.TypeNS] {
		out = append(out, rr.Data.(dnswire.NS).Host)
	}
	sort.Strings(out)
	return out
}

// Names returns every owner name with authoritative data, sorted.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.records))
	for n := range z.records {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders a compact summary for debugging.
func (z *Zone) String() string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "zone %s: %d names, %d cuts", presentOrigin(z.origin), len(z.records), len(z.cuts))
	return sb.String()
}

func presentOrigin(origin string) string {
	if origin == "" {
		return "."
	}
	return origin + "."
}
