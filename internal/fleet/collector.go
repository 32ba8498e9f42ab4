package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"dnstrust/internal/snapshot"
)

// Source fetches one shard's current epoch. haveGen is the generation
// the caller has already applied, or -1 when nothing has been applied
// yet; a source that can answer "nothing newer" cheaply (the HTTP
// source's conditional fetch) returns (nil, nil) then, and the caller
// reuses its previous remap tables — the incremental half of the merge
// contract. Implementations must honor ctx: a shard that never
// responds must not outlive the commit round's deadline.
type Source interface {
	Fetch(ctx context.Context, haveGen int64) (*Epoch, error)
}

// MaxSnapshotBytes bounds the GET /snapshot body an HTTPSource reads: a
// shard snapshot is about 0.5 KB per name, so 1 GiB holds a single
// shard surveying several times the paper's 593 160 names. A longer body
// — declared or streamed — fails the fetch instead of exhausting the
// coordinator's memory.
const MaxSnapshotBytes = 1 << 30

// HTTPSource pulls snapshots from a dnsmonitord shard's GET /snapshot
// endpoint, using If-None-Match against the generation ETag so an
// unchanged shard costs one conditional request and zero bytes of
// snapshot transfer.
type HTTPSource struct {
	// URL is the shard's base URL (e.g. "http://shard0:8061").
	URL string
	// Client overrides http.DefaultClient. Commit deadlines arrive via
	// ctx, so a custom client is only needed for transport tuning.
	Client *http.Client
}

// Fetch implements Source.
func (s *HTTPSource) Fetch(ctx context.Context, haveGen int64) (*Epoch, error) {
	return s.fetch(ctx, haveGen, MaxSnapshotBytes)
}

// fetch is Fetch reading at most limit body bytes.
func (s *HTTPSource) fetch(ctx context.Context, haveGen, limit int64) (*Epoch, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/snapshot", nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: fetch %s: %w", s.URL, err)
	}
	if haveGen >= 0 {
		req.Header.Set("If-None-Match", fmt.Sprintf(`"%d"`, haveGen))
	}
	client := s.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: fetch %s: %w", s.URL, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("fleet: fetch %s: unexpected status %s", s.URL, resp.Status)
	}
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("fleet: fetch %s: snapshot of %d bytes exceeds the %d-byte cap", s.URL, resp.ContentLength, limit)
	}
	f, err := snapshot.Read(http.MaxBytesReader(nil, resp.Body, limit))
	if errors.As(err, new(*http.MaxBytesError)) {
		return nil, fmt.Errorf("fleet: fetch %s: snapshot exceeds the %d-byte cap", s.URL, limit)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: fetch %s: %w", s.URL, err)
	}
	ep, err := DecodeEpoch(f)
	if err != nil {
		return nil, fmt.Errorf("fleet: fetch %s: %w", s.URL, err)
	}
	return ep, nil
}

// FixedSource serves one pre-decoded epoch — in-process fleets, tests,
// and benchmarks. It reports unchanged once the caller has applied the
// epoch's generation.
type FixedSource struct {
	Epoch *Epoch
}

// Fetch implements Source.
func (s *FixedSource) Fetch(_ context.Context, haveGen int64) (*Epoch, error) {
	if s.Epoch == nil {
		return nil, fmt.Errorf("fleet: fixed source holds no epoch")
	}
	if haveGen >= s.Epoch.Generation {
		return nil, nil
	}
	return s.Epoch, nil
}

// fetchWithRetry drives one shard's fetch for one commit round:
// bounded attempts with doubling backoff, every wait cancellable by
// ctx so a dead shard costs at most the round deadline.
func fetchWithRetry(ctx context.Context, src Source, haveGen int64, attempts int, backoff time.Duration) (*Epoch, error) {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			t := time.NewTimer(backoff << (i - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("fleet: fetch retry abandoned: %w", ctx.Err())
			case <-t.C:
			}
		}
		var ep *Epoch
		ep, err = src.Fetch(ctx, haveGen)
		if err == nil {
			return ep, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, err
}
