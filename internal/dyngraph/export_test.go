package dyngraph

// Accessors only this package's tests read; the program itself has no use
// for them.

// NumEdges returns the undirected edge count visible at this version.
func (s *Snapshot) NumEdges() int64 { return s.v.gen.base.NumEdges() + s.v.ov.Arcs()/2 }
