package resolver

// MemoLen reports how many answered questions the query memo holds.
func (w *Walker) MemoLen() int {
	n := 0
	for i := range w.qmemo {
		qs := &w.qmemo[i]
		qs.mu.Lock()
		n += len(qs.facts)
		qs.mu.Unlock()
	}
	return n
}
