package analysis

// FoldWork reports how many per-name steps and min-cut solves the
// memo's whole-survey passes (warm folds and cold passes alike) have
// done so far.
func (m *ChainMemo) FoldWork() (steps, solves int64) {
	m.aggMu.Lock()
	defer m.aggMu.Unlock()
	return m.steps, m.solves
}

// HoldFold takes the lock a fold holds throughout, as a long warm fold
// would, until release is called.
func (m *ChainMemo) HoldFold() (release func()) {
	m.aggMu.Lock()
	return m.aggMu.Unlock
}
