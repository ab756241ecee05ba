package sched

// Accessors only this package's tests read; the program itself has no use
// for them.

// Empty reports whether the range contains no vertices.
func (r Range) Empty() bool { return r.Lo >= r.Hi }

// Len returns the number of vertices in the range.
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}
