package obs

// Accessors only this package's tests read; the program itself has no use
// for them.

// Reset discards all retained records (IDs keep increasing). Nil-safe.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traversals = nil
	t.spans = nil
	t.droppedTraversals = 0
	t.droppedSpans = 0
}
