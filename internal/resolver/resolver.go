// Package resolver implements the survey's Walker, which descends the
// delegation tree from the root and walks the full transitive dependency
// structure of a name: every zone and nameserver that could participate
// in its resolution. Resolver answers questions on top of it: the
// walker finds the authoritative zone, and the Resolver asks that zone's
// servers the final question. It speaks through a pluggable Transport so
// the same code runs against real sockets or an in-memory synthetic
// Internet.
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
	// ErrCNAMELoop is returned when an alias chain outruns MaxCNAME hops,
	// which in practice means it is circular.
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
	if c.MaxCNAME == 0 {
		c.MaxCNAME = 8
	}
}

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
}

// Resolver performs iterative resolution over a Transport. It is
// stateless between calls except for configuration; the descent and its
// caches live in Walker.
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

// ResolveFrom resolves (name, qtype) through w: the walker's descent
// finds the zone authoritative for the name (Walker.Cut, O(1) for a name
// the walker has walked), and only the final question, which bypasses
// the walker's query memo, is asked here, of that zone's servers through
// r's transport. Each CNAME target goes through the same two steps, up
// to MaxCNAME hops. A reply to the final question that is neither an
// answer nor an authoritative denial is an ErrLameDelegation failure: a
// referral there names a cut below the one the walker found, and is not
// followed. A nil w is a fresh private walker over r, so the resolution
// starts at the root hints.
func (r *Resolver) ResolveFrom(ctx context.Context, w *Walker, name string, qtype dnswire.Type) (*Result, error) {
	if w == nil {
		w = NewWalker(r)
	}
	name = dnsname.Canonical(name)
	res := &Result{Name: name, CanonicalName: name}
	for hop := 0; hop <= r.cfg.MaxCNAME; hop++ {
		apex, servers, err := w.Cut(ctx, res.CanonicalName)
		if err != nil {
			return res, err
		}
		resp, _, err := r.dispatch(ctx, apex, servers, res.CanonicalName, qtype)
		if err != nil {
			return res, err
		}
		res.AuthZone = apex
		switch {
		case resp.RCode == dnswire.RCodeNXDomain:
			return res, ErrNXDomain
		case resp.RCode != dnswire.RCodeSuccess:
			return res, fmt.Errorf("resolver: server returned %v", resp.RCode)
		case len(resp.Answers) == 0 && resp.Authoritative:
			return res, ErrNoData
		case len(resp.Answers) == 0:
			return res, fmt.Errorf("%w: zone %q gave no authoritative reply for %q", ErrLameDelegation, apex, res.CanonicalName)
		}
		// Split CNAMEs from the payload records.
		var cname string
		for _, rr := range resp.Answers {
			if c, ok := rr.Data.(dnswire.CNAME); ok && qtype != dnswire.TypeCNAME {
				cname = dnsname.Canonical(c.Target)
				continue
			}
			res.Records = append(res.Records, rr)
		}
		if cname != "" && len(res.Records) == 0 {
			res.CanonicalName = cname
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

// dispatch tries servers in order until one gives a usable response,
// stopping once the retry budget is spent. It is the one loop that sends
// questions to nameservers, for the walker's memoized descent and for
// ResolveFrom's final question alike, and it reports how many attempts
// it made. Pacing is not its concern: each attempt carries the queried
// zone as a context tag, and the transport.RateLimit middleware
// (installed by New when the config enables pacing, or composed into any
// custom source chain) paces the attempt at that zone's etiquette.
func (r *Resolver) dispatch(ctx context.Context, zone string, servers []ServerAddr, name string, qtype dnswire.Type) (*dnswire.Message, int, error) {
	if len(servers) == 0 {
		return nil, 0, ErrNoServers
	}
	qctx := transport.WithZone(ctx, zone)
	var lastErr error = ErrNoServers
	for attempt, srv := range servers {
		if err := ctx.Err(); err != nil {
			return nil, attempt, err
		}
		if r.cfg.RetryBudget > 0 && attempt >= r.cfg.RetryBudget {
			// Double-%w keeps lastErr in the chain: a wrapped context
			// cancellation must stay visible to isCtxErr so it is never
			// memoized as a permanent failure.
			return nil, attempt, fmt.Errorf("%w after %d attempts: %w", ErrRetryBudget, attempt, lastErr)
		}
		resp, err := r.tr.Query(qctx, srv.Addr, name, qtype, dnswire.ClassINET)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.RCode == dnswire.RCodeRefused || resp.RCode == dnswire.RCodeServFail {
			lastErr = fmt.Errorf("resolver: %v from %s", resp.RCode, srv.Host)
			continue
		}
		return resp, attempt + 1, nil
	}
	return nil, len(servers), lastErr
}
