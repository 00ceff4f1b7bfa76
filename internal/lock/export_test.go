package lock

// FinishedMarkers returns the number of rule-3 finished markers plus
// unretired tree-index entries held across all owner shards (exact only
// on a quiescent manager).
func (m *Manager) FinishedMarkers() int {
	n := 0
	for i := range m.owners {
		os := &m.owners[i]
		os.mu.Lock()
		n += len(os.finished) + len(os.trees)
		os.mu.Unlock()
	}
	return n
}
