// Package proxy implements the trust-aware resolving DNS proxy: a
// dnsserver.Handler that resolves each query upstream through the
// monitor's walker, at the zone cut the survey judged, and applies the
// monitor's verdict first — allow serves silently, flag serves and logs,
// refuse answers REFUSED without ever contacting upstream. It is the
// enforcement point the paper's offline measurement implies: the place a
// resolver turns "this chain is too trusting" into an answer-path
// decision.
package proxy

import (
	"context"
	"errors"
	"log"
	"sync/atomic"
	"time"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/verdict"
)

// Config configures a Proxy.
type Config struct {
	// Resolver asks each resolution's final question upstream, through
	// its transport and within its retry budget; the descent to the cut
	// is the walker of the survey Cache serves. Required.
	Resolver *resolver.Resolver
	// Cache serves per-name verdicts. Required; keep it advancing via
	// Monitor.OnCommit.
	Cache *verdict.Cache
	// Logger receives one line per flagged or refused answer; nil
	// disables logging.
	Logger *log.Logger
	// Timeout bounds one upstream resolution. Zero means 5s.
	Timeout time.Duration
}

// Stats counts proxy outcomes.
type Stats struct {
	// Served counts every well-formed query handled.
	Served uint64
	// Refused counts queries answered REFUSED by policy.
	Refused uint64
	// Flagged counts queries answered but logged by policy.
	Flagged uint64
	// Failed counts upstream resolution failures (SERVFAIL answers).
	Failed uint64
}

// Proxy is a dnsserver.Handler; it is safe for concurrent use.
type Proxy struct {
	cfg Config

	served  atomic.Uint64
	refused atomic.Uint64
	flagged atomic.Uint64
	failed  atomic.Uint64
}

// New validates cfg and builds a Proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("proxy: Config.Resolver is required")
	}
	if cfg.Cache == nil {
		return nil, errors.New("proxy: Config.Cache is required")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	return &Proxy{cfg: cfg}, nil
}

// ServeDNS implements dnsserver.Handler. The verdict is consulted
// before resolution, so a refused name costs no upstream traffic — the
// attack the policy blocks is on the answer path, and the proxy never
// walks into a chain the monitor already condemned.
//
// An allowed name resolves through the monitor's own walker: the final
// question goes to the servers of the cut the survey judged, and a
// referral in reply to it (a cut below the judged one) is not followed
// but answered SERVFAIL. The verdict covers the queried name's chain,
// not a CNAME target's, as the paper's TCB does: a target is resolved
// through the walker's cuts like any name, but its own verdict is not
// consulted.
//
// The refuse path is the serving-side hot loop under attack: every
// blocked query pays one cache lookup and one reply header. Varargs box
// their arguments at the call site — before logf's own nil check — so
// each log line sits behind an explicit Logger guard to keep the
// unlogged path allocation-free.
//
//lint:hotpath
func (p *Proxy) ServeDNS(ctx context.Context, req *dnswire.Message) *dnswire.Message {
	q := req.Questions[0]
	resp := req.Reply()
	resp.RecursionAvailable = true
	p.served.Add(1)

	if q.Class != dnswire.ClassINET {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	name := dnsname.Canonical(q.Name)

	v := p.cfg.Cache.Lookup(name)
	switch v.Level {
	case verdict.Refuse:
		p.refused.Add(1)
		if p.cfg.Logger != nil {
			//lint:allow hotpathalloc boxing happens only with logging enabled; the guard keeps the silent refuse path allocation-free
			p.logf("refuse %s: %s (tcb=%d cut=%d gen=%d)", name, v.Reasons, v.TCBSize, v.Cut, v.Generation)
		}
		resp.RCode = dnswire.RCodeRefused
		return resp
	case verdict.Flag:
		p.flagged.Add(1)
		if p.cfg.Logger != nil {
			//lint:allow hotpathalloc boxing happens only with logging enabled; flagged answers are logged by contract
			p.logf("flag %s: %s (tcb=%d cut=%d gen=%d provisional=%v)", name, v.Reasons, v.TCBSize, v.Cut, v.Generation, v.Provisional)
		}
	}

	// Resolve through what was judged: the final question goes to the
	// servers of the cut the verdict's survey walked, not from the root.
	rctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	res, err := p.cfg.Resolver.ResolveFrom(rctx, p.cfg.Cache.Survey().Walker, name, q.Type)
	switch {
	case err == nil:
		resp.Answers = res.Records
	case errors.Is(err, resolver.ErrNXDomain):
		resp.RCode = dnswire.RCodeNXDomain
	case errors.Is(err, resolver.ErrNoData):
		// NOERROR with an empty answer section.
	default:
		p.failed.Add(1)
		if p.cfg.Logger != nil {
			//lint:allow hotpathalloc upstream failure already allocated; one log line per SERVFAIL is the diagnosis path
			p.logf("servfail %s %s: %v", name, q.Type, err)
		}
		resp.RCode = dnswire.RCodeServFail
	}
	return resp
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Served:  p.served.Load(),
		Refused: p.refused.Load(),
		Flagged: p.flagged.Load(),
		Failed:  p.failed.Load(),
	}
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf(format, args...)
	}
}
