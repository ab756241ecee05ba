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
	t.traversals = NewRing[*Traversal](maxTraversals)
	t.spans = NewRing[Span](maxSpans)
}
