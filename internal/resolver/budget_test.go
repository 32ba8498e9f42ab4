package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"dnstrust/internal/dnswire"
)

// errTransport fails every query with a fixed error.
type errTransport struct{ err error }

func (t errTransport) Query(context.Context, netip.Addr, string, dnswire.Type, dnswire.Class) (*dnswire.Message, error) {
	return nil, t.err
}

// TestRetryBudgetPreservesErrorChain guards the never-memoize-cancellation
// invariant: when the retry budget trips, the underlying error — possibly
// a wrapped context cancellation — must stay reachable through errors.Is,
// or queryAny would cache the cancellation as a permanent failure.
func TestRetryBudgetPreservesErrorChain(t *testing.T) {
	underlying := fmt.Errorf("transport: %w", context.DeadlineExceeded)
	r, err := New(errTransport{err: underlying}, Config{
		Roots:       []ServerAddr{{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}},
		RetryBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	servers := []ServerAddr{
		{Host: "s1", Addr: netip.MustParseAddr("192.0.2.1")},
		{Host: "s2", Addr: netip.MustParseAddr("192.0.2.2")},
	}
	_, _, err = r.dispatch(context.Background(), "test", servers, "example.test", dnswire.TypeA)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("dispatch error = %v, want ErrRetryBudget in chain", err)
	}
	if !isCtxErr(err) {
		t.Fatalf("dispatch error %v hides the wrapped cancellation from isCtxErr", err)
	}
}

// TestRetryBudgetCapsAttempts verifies the budget actually bounds how
// many servers one logical query tries, as the walker counts them.
func TestRetryBudgetCapsAttempts(t *testing.T) {
	r, err := New(errTransport{err: errors.New("refused")}, Config{
		Roots:       []ServerAddr{{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}},
		RetryBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(r)
	servers := make([]ServerAddr, 5)
	for i := range servers {
		servers[i] = ServerAddr{Host: fmt.Sprintf("s%d", i), Addr: netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", i+1))}
	}
	if _, err := w.queryAny(context.Background(), "test", servers, "example.test", dnswire.TypeA); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("queryAny error = %v, want ErrRetryBudget", err)
	}
	if got := w.Queries(); got != 2 {
		t.Fatalf("queryAny issued %d queries, want the budget of 2", got)
	}
}
