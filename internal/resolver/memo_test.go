package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dnstrust/internal/dnswire"
)

// countingTransport answers every question through reply and counts
// the questions asked.
type countingTransport struct {
	reply func(name string, qtype dnswire.Type) (*dnswire.Message, error)
	asked atomic.Int64
}

func (t *countingTransport) Query(_ context.Context, _ netip.Addr, name string, qtype dnswire.Type, _ dnswire.Class) (*dnswire.Message, error) {
	t.asked.Add(1)
	return t.reply(name, qtype)
}

// memoOutcome is what the walker made of a question: a descent's zone
// and servers, or a host's addresses, and the error text.
type memoOutcome struct {
	apex    string
	servers []ServerAddr
	addrs   []netip.Addr
	err     string
}

// TestMemoHitMatchesFirstAnswer asks one question per kind of memo fact
// twice: first across the transport, then from a fresh walker handed
// only the first walker's memo, so no discovery cache short-cuts the
// second ask. Both must give the expected result, and the second must
// cross the transport zero times.
func TestMemoHitMatchesFirstAnswer(t *testing.T) {
	root := ServerAddr{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}
	glue := netip.MustParseAddr("192.0.2.1")
	hostAddr := netip.MustParseAddr("192.0.2.53")
	errBoom := errors.New("boom")
	rr := func(name string, data dnswire.RData) dnswire.RR {
		return dnswire.RR{Name: name, Class: dnswire.ClassINET, TTL: 60, Data: data}
	}
	reply := func(aa bool, rcode dnswire.RCode, answers, authority, additional []dnswire.RR) *dnswire.Message {
		m := &dnswire.Message{Answers: answers, Authority: authority, Additional: additional}
		m.Response, m.Authoritative, m.RCode = true, aa, rcode
		return m
	}
	nsAnswer := []dnswire.RR{rr("test", dnswire.NS{Host: "ns1.test"})}
	hostA := []dnswire.RR{rr("ns1.test", dnswire.A{Addr: hostAddr})}

	ctx := context.Background()
	descend := func(w *Walker) memoOutcome {
		apex, servers, err := w.descendToZone(ctx, "test", w.newWalkCtx())
		return memoOutcome{apex: apex, servers: servers, err: fmt.Sprint(err)}
	}
	address := func(w *Walker) memoOutcome {
		addrs, err := w.queryAddr(ctx, "", []ServerAddr{root}, "ns1.test")
		return memoOutcome{addrs: addrs, err: fmt.Sprint(err)}
	}
	atRoot := memoOutcome{apex: "", servers: []ServerAddr{root}, err: "<nil>"}

	for _, tc := range []struct {
		name  string
		reply func(name string, qtype dnswire.Type) (*dnswire.Message, error)
		ask   func(*Walker) memoOutcome
		want  memoOutcome // err: a substring of the error text
	}{
		{"referral with glue", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(false, dnswire.RCodeSuccess, nil, nsAnswer, []dnswire.RR{
				rr("other.test", dnswire.A{Addr: hostAddr}),
				rr("ns1.test", dnswire.A{Addr: glue}),
			}), nil
		}, descend, memoOutcome{apex: "test", servers: []ServerAddr{{Host: "ns1.test", Addr: glue}}, err: "<nil>"}},
		{"in-zone NS answer", func(_ string, qtype dnswire.Type) (*dnswire.Message, error) {
			if qtype == dnswire.TypeA {
				return reply(true, dnswire.RCodeSuccess, hostA, nil, nil), nil
			}
			return reply(true, dnswire.RCodeSuccess, nsAnswer, nil, nil), nil
		}, descend, memoOutcome{apex: "test", servers: []ServerAddr{{Host: "ns1.test", Addr: hostAddr}}, err: "<nil>"}},
		{"answer without NS data", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(true, dnswire.RCodeSuccess, []dnswire.RR{rr("test", dnswire.CNAME{Target: "other.example"})}, nil, nil), nil
		}, descend, atRoot},
		{"NODATA", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(true, dnswire.RCodeSuccess, nil, nil, nil), nil
		}, descend, atRoot},
		{"NXDOMAIN", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(true, dnswire.RCodeNXDomain, nil, nil, nil), nil
		}, descend, memoOutcome{err: "no such domain"}},
		{"another rcode", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(false, dnswire.RCodeNotImpl, nil, nil, nil), nil
		}, descend, memoOutcome{err: "NOTIMP"}},
		{"empty reply", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(false, dnswire.RCodeSuccess, nil, nil, nil), nil
		}, descend, memoOutcome{err: "empty response"}},
		{"A with addresses", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(true, dnswire.RCodeSuccess, hostA, nil, nil), nil
		}, address, memoOutcome{addrs: []netip.Addr{hostAddr}, err: "<nil>"}},
		{"A without addresses", func(string, dnswire.Type) (*dnswire.Message, error) {
			return reply(true, dnswire.RCodeSuccess, nil, nil, nil), nil
		}, address, memoOutcome{err: "no address"}},
		{"transport error", func(string, dnswire.Type) (*dnswire.Message, error) {
			return nil, errBoom
		}, descend, memoOutcome{err: "boom"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &countingTransport{reply: tc.reply}
			r, err := New(tr, Config{Roots: []ServerAddr{root}})
			if err != nil {
				t.Fatal(err)
			}
			check := func(which string, got memoOutcome) {
				t.Helper()
				want := tc.want
				if !strings.Contains(got.err, want.err) {
					t.Errorf("%s ask: error %q, want %q", which, got.err, want.err)
				}
				got.err, want.err = "", ""
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s ask: %+v, want %+v", which, got, want)
				}
			}
			first := NewWalker(r)
			check("first", tc.ask(first))
			if tr.asked.Load() == 0 {
				t.Fatal("first ask crossed no transport")
			}

			second := NewWalker(r)
			for i := range first.qmemo {
				second.qmemo[i].facts = first.qmemo[i].facts
			}
			asked := tr.asked.Load()
			check("memo", tc.ask(second))
			if n := tr.asked.Load() - asked; n != 0 {
				t.Errorf("memo ask crossed the transport %d times, want 0", n)
			}
			if second.Stats().MemoHits == 0 {
				t.Error("memo ask recorded no memo hit")
			}
		})
	}
}
