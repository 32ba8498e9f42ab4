package fleet

import "context"

// Replayed reports, per shard in name order, how many names the
// shard's last applied epoch replayed into the union.
func (c *Coordinator) Replayed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.shards))
	for i, st := range c.shards {
		out[i] = st.replayed
	}
	return out
}

// FetchLimited is Fetch with a body cap of limit bytes in place of
// MaxSnapshotBytes.
func (s *HTTPSource) FetchLimited(ctx context.Context, haveGen, limit int64) (*Epoch, error) {
	return s.fetch(ctx, haveGen, limit)
}
