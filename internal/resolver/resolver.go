// Package resolver implements an iterative DNS resolver that follows
// delegation chains from the root, records complete resolution traces, and
// — for the survey — walks the full transitive dependency structure of a
// name: every zone and nameserver that could participate in its
// resolution. It speaks through a pluggable Transport so the same code
// runs against real sockets or an in-memory synthetic Internet.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/transport"
)

// Transport delivers a single question to a nameserver address. It is
// the one-method core of transport.Source: any Source is a Transport,
// and a plain Transport adapts into the composable source stack with
// transport.From.
type Transport interface {
	Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error)
}

// ServerAddr pairs a nameserver host name with one of its addresses.
type ServerAddr struct {
	Host string
	Addr netip.Addr
}

// Errors surfaced by resolution.
var (
	// ErrNoServers means a zone had no reachable, non-lame nameserver.
	ErrNoServers = errors.New("resolver: no usable nameservers")
	// ErrDepthExceeded guards against delegation chains and NS-address
	// recursions deeper than any legitimate deployment.
	ErrDepthExceeded = errors.New("resolver: resolution depth exceeded")
	// ErrCNAMELoop guards against circular CNAME chains.
	ErrCNAMELoop = errors.New("resolver: CNAME loop")
	// ErrNXDomain is returned when the authoritative server denies the name.
	ErrNXDomain = errors.New("resolver: no such domain")
	// ErrNoData is returned when the name exists without the queried type.
	ErrNoData = errors.New("resolver: no data of requested type")
	// ErrLameDelegation is returned when a chain dead-ends: the delegated
	// servers cannot be addressed or refuse to answer.
	ErrLameDelegation = errors.New("resolver: lame delegation")
	// ErrRetryBudget is returned when a query exhausts Config.RetryBudget
	// server attempts without a usable response.
	ErrRetryBudget = errors.New("resolver: retry budget exhausted")
)

// Config tunes a Resolver.
type Config struct {
	// Roots are the root nameserver hints (host + address). Required.
	Roots []ServerAddr
	// MaxDepth bounds the NS-address recursion depth; default 16.
	MaxDepth int
	// MaxChainLen bounds one delegation chain's length; default 16.
	MaxChainLen int
	// MaxCNAME bounds CNAME chases; default 8.
	MaxCNAME int
	// QueriesPerSec, when positive, paces the survey walker's transport
	// queries through a per-server token bucket: no single nameserver
	// sees more than this sustained rate from a crawl, no matter how
	// many workers share it. 0 disables pacing (synthetic worlds).
	QueriesPerSec float64
	// ZoneQueriesPerSec overrides QueriesPerSec per queried zone apex:
	// while a query is addressed to servers acting for that zone, its
	// token bucket paces at the override instead of the default. TLD and
	// registry servers are provisioned for orders of magnitude more
	// traffic than leaf-zone boxes, so a live crawl typically sets a
	// high override for "com", "net", ... and leaves the conservative
	// default for everything else. Keys are canonical zone apexes ("" is
	// the root); matching is exact. A zone absent from the map uses
	// QueriesPerSec; an override <= 0 disables pacing for that zone.
	ZoneQueriesPerSec map[string]float64
	// RateBurst is the token-bucket depth (the number of back-to-back
	// queries one server may absorb before pacing kicks in). Values
	// below 1 default to 1. Only meaningful with QueriesPerSec or
	// ZoneQueriesPerSec.
	RateBurst int
	// RetryBudget, when positive, bounds how many servers the walker
	// tries for one logical query before giving up with ErrRetryBudget.
	// 0 tries every known server of the zone (the paper's behavior).
	RetryBudget int

	// rateNow and rateSleep inject a fake clock into the pacing
	// middleware for in-package tests; nil selects real time.
	rateNow   func() time.Time
	rateSleep func(context.Context, time.Duration) error
}

// paced reports whether the config enables pacing anywhere.
func (c *Config) paced() bool {
	if c.QueriesPerSec > 0 {
		return true
	}
	for _, r := range c.ZoneQueriesPerSec {
		if r > 0 {
			return true
		}
	}
	return false
}

func (c *Config) applyDefaults() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 16
	}
	if c.MaxChainLen == 0 {
		c.MaxChainLen = 16
	}
	if c.MaxCNAME == 0 {
		c.MaxCNAME = 8
	}
}

// StepKind classifies one step of a resolution trace.
type StepKind int

const (
	// StepReferral means the server handed back a delegation.
	StepReferral StepKind = iota
	// StepAnswer means the server answered authoritatively.
	StepAnswer
	// StepCNAME means the answer was an alias that was then chased.
	StepCNAME
	// StepFailure means the server could not be used (error, refusal).
	StepFailure
)

func (k StepKind) String() string {
	switch k {
	case StepReferral:
		return "referral"
	case StepAnswer:
		return "answer"
	case StepCNAME:
		return "cname"
	default:
		return "failure"
	}
}

// Step records one server contact during resolution.
type Step struct {
	// Zone is the apex of the zone the contacted server was serving
	// ("" for the root).
	Zone string
	// Server is the contacted nameserver.
	Server ServerAddr
	// Name and Type are the question asked.
	Name string
	Type dnswire.Type
	// Kind classifies the outcome.
	Kind StepKind
	// ChildZone is the delegated apex for StepReferral.
	ChildZone string
	// Err carries the failure for StepFailure.
	Err error
}

// Trace is the ordered list of server contacts one resolution performed.
type Trace []Step

// Result is a completed iterative resolution.
type Result struct {
	// Name is the canonical name resolved (after CNAME chasing, the final
	// canonical target is CanonicalName).
	Name string
	// CanonicalName is the end of the CNAME chain (== Name when no alias).
	CanonicalName string
	// Addrs are the resolved addresses (for TypeA/TypeAAAA queries).
	Addrs []netip.Addr
	// Records are the final answer records.
	Records []dnswire.RR
	// AuthZone is the apex of the zone that answered authoritatively.
	AuthZone string
	// Trace lists every server contact made, including for intermediate
	// nameserver-address resolutions.
	Trace Trace
}

// Delegations is a memory of zone cuts a resolution may start at instead
// of the root hints. *Walker implements it over its discovery caches, so
// a resolve through a survey's walker begins at the cut the survey
// judged.
type Delegations interface {
	// DeepestCut returns the deepest known zone cut at or above name and
	// that zone's usable servers. The servers slice is shared and
	// read-only. The root, "", means nothing is known.
	DeepestCut(name string) (apex string, servers []ServerAddr)
}

// Resolver performs iterative resolution over a Transport. It is
// stateless between calls except for configuration; the survey's caching
// lives in Walker.
type Resolver struct {
	cfg Config
	tr  Transport
}

// New creates a Resolver. When the config enables pacing
// (QueriesPerSec / ZoneQueriesPerSec), the transport is wrapped in the
// transport.RateLimit middleware: every query the resolver or its
// walkers issue is paced per server, with the queried zone's etiquette
// carried by context tag. The wrapper is private to the resolver —
// queries other components send through the same underlying source
// (fingerprint probes, say) bypass it; a chain that should pace all of
// its traffic composes transport.RateLimit into the chain itself.
func New(tr Transport, cfg Config) (*Resolver, error) {
	if len(cfg.Roots) == 0 {
		return nil, errors.New("resolver: at least one root server required")
	}
	cfg.applyDefaults()
	if cfg.paced() {
		tr = transport.Chain(transport.From(tr), transport.RateLimit(transport.RateConfig{
			QueriesPerSec:     cfg.QueriesPerSec,
			ZoneQueriesPerSec: cfg.ZoneQueriesPerSec,
			Burst:             cfg.RateBurst,
			Now:               cfg.rateNow,
			Sleep:             cfg.rateSleep,
		}))
	}
	return &Resolver{cfg: cfg, tr: tr}, nil
}

// Resolve iteratively resolves (name, qtype) starting from the root.
func (r *Resolver) Resolve(ctx context.Context, name string, qtype dnswire.Type) (*Result, error) {
	return r.ResolveFrom(ctx, nil, name, qtype)
}

// ResolveFrom iteratively resolves (name, qtype), starting every lookup
// — the name, each CNAME target, each glue-less nameserver — at the
// deepest cut d knows instead of the root. When every server of that
// starting cut fails, the lookup restarts once from the root hints, so
// the answer is never worse than Resolve's. A nil d is Resolve.
func (r *Resolver) ResolveFrom(ctx context.Context, d Delegations, name string, qtype dnswire.Type) (*Result, error) {
	name = dnsname.Canonical(name)
	res := &Result{Name: name, CanonicalName: name}
	seen := map[string]bool{}
	target := name
	for hop := 0; hop <= r.cfg.MaxCNAME; hop++ {
		if seen[target] {
			return res, ErrCNAMELoop
		}
		seen[target] = true
		rrs, authZone, err := r.resolveOnce(ctx, d, target, qtype, &res.Trace, 0)
		if err != nil {
			return res, err
		}
		res.AuthZone = authZone
		// Split CNAMEs from the payload records.
		var cname string
		res.Records = res.Records[:0]
		for _, rr := range rrs {
			if c, ok := rr.Data.(dnswire.CNAME); ok && qtype != dnswire.TypeCNAME {
				cname = c.Target
				continue
			}
			res.Records = append(res.Records, rr)
		}
		if cname != "" && len(res.Records) == 0 {
			res.CanonicalName = cname
			target = cname
			continue
		}
		for _, rr := range res.Records {
			switch d := rr.Data.(type) {
			case dnswire.A:
				res.Addrs = append(res.Addrs, d.Addr)
			case dnswire.AAAA:
				res.Addrs = append(res.Addrs, d.Addr)
			}
		}
		return res, nil
	}
	return res, ErrCNAMELoop
}

// resolveOnce walks one delegation chain for (name,qtype) down to the
// authoritative zone, from d's deepest cut or the root. depth counts
// nested NS-address resolutions.
func (r *Resolver) resolveOnce(ctx context.Context, d Delegations, name string, qtype dnswire.Type, trace *Trace, depth int) ([]dnswire.RR, string, error) {
	if depth > r.cfg.MaxDepth {
		return nil, "", ErrDepthExceeded
	}
	zone, servers := "", r.cfg.Roots
	if d != nil {
		if apex, srv := d.DeepestCut(name); apex != "" && len(srv) > 0 {
			zone, servers = apex, srv
		}
	}
	// fallback is set while the walk still sits at a remembered cut: if
	// every server there fails, the memory is stale or the servers are
	// down, and the walk starts over from the root hints once.
	fallback := zone != ""
	for hop := 0; hop < r.cfg.MaxChainLen; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		resp, err := r.queryAny(ctx, zone, servers, name, qtype, trace)
		if err != nil && fallback {
			zone, servers, fallback, hop = "", r.cfg.Roots, false, -1
			continue
		}
		fallback = false
		if err != nil {
			return nil, zone, err
		}
		switch {
		case resp.RCode == dnswire.RCodeNXDomain:
			return nil, zone, ErrNXDomain
		case resp.RCode != dnswire.RCodeSuccess:
			return nil, zone, fmt.Errorf("resolver: server returned %v", resp.RCode)
		case len(resp.Answers) > 0:
			return resp.Answers, zone, nil
		case resp.Authoritative:
			// Authoritative empty answer: NODATA.
			return nil, zone, ErrNoData
		case len(resp.Authority) > 0:
			// Referral: descend into the child zone.
			child, next, err := r.followReferral(ctx, d, resp, trace, depth)
			if err != nil {
				return nil, zone, err
			}
			if !dnsname.IsSubdomain(child, zone) || child == zone {
				return nil, zone, fmt.Errorf("resolver: bogus referral from %q to %q", zone, child)
			}
			zone = child
			servers = next
		default:
			return nil, zone, ErrLameDelegation
		}
	}
	return nil, zone, ErrDepthExceeded
}

// queryAny tries the zone's servers in order until one responds usefully.
func (r *Resolver) queryAny(ctx context.Context, zone string, servers []ServerAddr, name string, qtype dnswire.Type, trace *Trace) (*dnswire.Message, error) {
	qctx := transport.WithZone(ctx, zone)
	var lastErr error = ErrNoServers
	for _, srv := range servers {
		resp, err := r.tr.Query(qctx, srv.Addr, name, qtype, dnswire.ClassINET)
		if err != nil {
			*trace = append(*trace, Step{Zone: zone, Server: srv, Name: name, Type: qtype, Kind: StepFailure, Err: err})
			lastErr = err
			continue
		}
		if resp.RCode == dnswire.RCodeRefused || resp.RCode == dnswire.RCodeServFail {
			err := fmt.Errorf("resolver: %v from %s", resp.RCode, srv.Host)
			*trace = append(*trace, Step{Zone: zone, Server: srv, Name: name, Type: qtype, Kind: StepFailure, Err: err})
			lastErr = err
			continue
		}
		kind := StepAnswer
		child := ""
		if len(resp.Answers) == 0 && !resp.Authoritative && len(resp.Authority) > 0 {
			kind = StepReferral
			child = dnsname.Canonical(resp.Authority[0].Name)
		}
		*trace = append(*trace, Step{Zone: zone, Server: srv, Name: name, Type: qtype, Kind: kind, ChildZone: child})
		return resp, nil
	}
	return nil, lastErr
}

// followReferral extracts the child zone and its servers from a referral,
// resolving nameserver addresses (using glue when offered, recursing from
// d's deepest cut when not) so the descent can continue.
func (r *Resolver) followReferral(ctx context.Context, d Delegations, resp *dnswire.Message, trace *Trace, depth int) (string, []ServerAddr, error) {
	child := dnsname.Canonical(resp.Authority[0].Name)
	glue := map[string][]netip.Addr{}
	for _, rr := range resp.Additional {
		owner := dnsname.Canonical(rr.Name)
		switch a := rr.Data.(type) {
		case dnswire.A:
			glue[owner] = append(glue[owner], a.Addr)
		case dnswire.AAAA:
			glue[owner] = append(glue[owner], a.Addr)
		}
	}
	var out []ServerAddr
	var lastErr error
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		host := dnsname.Canonical(ns.Host)
		if addrs, ok := glue[host]; ok && len(addrs) > 0 {
			out = append(out, ServerAddr{Host: host, Addr: addrs[0]})
			continue
		}
		// No glue: resolve the server's address through its own chain.
		sub, _, err := r.resolveOnce(ctx, d, host, dnswire.TypeA, trace, depth+1)
		if err != nil {
			lastErr = err
			continue
		}
		for _, srr := range sub {
			if a, ok := srr.Data.(dnswire.A); ok {
				out = append(out, ServerAddr{Host: host, Addr: a.Addr})
				break
			}
		}
	}
	if len(out) == 0 {
		if lastErr != nil {
			return child, nil, fmt.Errorf("%w: %w", ErrLameDelegation, lastErr)
		}
		return child, nil, ErrLameDelegation
	}
	return child, out, nil
}
