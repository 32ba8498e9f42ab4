package transport

import (
	"context"
	"net/netip"
	"sync/atomic"
	"time"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
)

// TraceFunc observes one transport query. Hooks must be safe for
// concurrent calls; the crawl's dedup tests use them to assert exactly
// which queries crossed the transport.
type TraceFunc func(server netip.Addr, name string, qtype dnswire.Type)

// Trace returns middleware that observes every query passing through it
// with fn, before forwarding.
func Trace(fn TraceFunc) Middleware {
	return func(next Source) Source {
		return layer{inner: next, query: func(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
			fn(server, name, qtype)
			return next.Query(ctx, server, name, qtype, class)
		}}
	}
}

// Counter counts the queries that pass through its middleware — the
// instrument behind every "zero transport queries" assertion. Place it
// directly above the source whose traffic you want to measure.
type Counter struct {
	n atomic.Int64
}

// NewCounter returns a fresh query counter.
func NewCounter() *Counter { return &Counter{} }

// Queries reports how many queries have passed through.
func (c *Counter) Queries() int64 { return c.n.Load() }

// Middleware returns the counting middleware.
func (c *Counter) Middleware() Middleware {
	return func(next Source) Source {
		return layer{inner: next, query: func(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
			c.n.Add(1)
			return next.Query(ctx, server, name, qtype, class)
		}}
	}
}

// LatencyModel maps a queried server to one simulated round-trip time.
type LatencyModel func(server netip.Addr) time.Duration

// FixedRTT is the uniform latency model: every server is rtt away.
func FixedRTT(rtt time.Duration) LatencyModel {
	return func(netip.Addr) time.Duration { return rtt }
}

// Latency returns middleware that delays every query by the model's
// round-trip time for the queried server. Real surveys are network-bound
// — the paper's crawl of 593k names took days of wall-clock, dominated
// by RTTs — so this is the honest substrate for measuring how crawl
// throughput scales with the worker pool: workers overlap round-trips
// exactly as a live crawl's would, independent of host core count.
func Latency(model LatencyModel) Middleware {
	return func(next Source) Source {
		return layer{inner: next, query: func(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
			if rtt := model(server); rtt > 0 {
				timer := time.NewTimer(rtt)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return nil, ctx.Err()
				}
			}
			return next.Query(ctx, server, name, qtype, class)
		}}
	}
}

// WireFramed returns middleware that round-trips every message through
// the full wire codec (pack + unpack on both directions), exercising the
// identical byte path a network crawl would see without socket overhead.
// Used by the transport ablation.
func WireFramed() Middleware {
	return func(next Source) Source {
		return layer{inner: next, query: func(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
			req := dnswire.NewQuery(1, dnsname.Canonical(name), qtype, class)
			pkt, err := req.Pack()
			if err != nil {
				return nil, err
			}
			reqBack, err := dnswire.Unpack(pkt)
			if err != nil {
				return nil, err
			}
			q := reqBack.Questions[0]
			resp, err := next.Query(ctx, server, q.Name, q.Type, q.Class)
			if err != nil {
				return nil, err
			}
			out, err := resp.Pack()
			if err != nil {
				return nil, err
			}
			return dnswire.Unpack(out)
		}}
	}
}
