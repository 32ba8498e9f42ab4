package hijack

import (
	"context"
	"net/netip"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
)

// ForgingTransport wraps a resolver transport so that queries reaching a
// compromised server return attacker-controlled answers: every address
// question resolves to the attacker's address, and every other question
// (an NS probe, say) gets an authoritative empty answer, so no zone cut
// is seen below the compromised server and the descent keeps asking it. It
// demonstrates, at the wire level, the §3.2 scenario of a crack on
// reston-ns2.telemail.net diverting www.fbi.gov.
type ForgingTransport struct {
	inner resolver.Transport
	// compromised server addresses.
	compromised map[netip.Addr]bool
	// AttackerAddr is where diverted names point.
	AttackerAddr netip.Addr

	// Diverted counts forged responses, for assertions and demos.
	diverted int
}

// NewForgingTransport builds the attack transport. compromised lists the
// addresses of servers under attacker control.
func NewForgingTransport(inner resolver.Transport, compromised []netip.Addr, attackerAddr netip.Addr) *ForgingTransport {
	m := make(map[netip.Addr]bool, len(compromised))
	for _, a := range compromised {
		m[a] = true
	}
	return &ForgingTransport{
		inner:        inner,
		compromised:  m,
		AttackerAddr: attackerAddr,
	}
}

// Diverted reports how many responses were forged so far.
func (t *ForgingTransport) Diverted() int { return t.diverted }

// Query implements resolver.Transport.
func (t *ForgingTransport) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	// The attacker's own server answers too: once a forged address points
	// there, every subsequent query is the attacker's.
	if !t.compromised[server] && server != t.AttackerAddr {
		return t.inner.Query(ctx, server, name, qtype, class)
	}
	t.diverted++
	name = dnsname.Canonical(name)
	req := dnswire.NewQuery(1, name, qtype, class)
	resp := req.Reply()
	resp.Authoritative = true
	switch qtype {
	case dnswire.TypeA:
		resp.Answers = []dnswire.RR{{
			Name: name, Class: class, TTL: 3600,
			Data: dnswire.A{Addr: t.AttackerAddr},
		}}
	default:
		// Anything else, NS probes included: claim the name exists with
		// no data. To a resolver descending label by label that says "no
		// cut here", so it keeps asking the attacker for addresses.
	}
	return resp, nil
}

var _ resolver.Transport = (*ForgingTransport)(nil)
