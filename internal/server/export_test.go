package server

// Accessors only this package's tests read; the program itself has no use
// for them.

import (
	"time"

	msbfs "repro"
)

// Unreachable is the distance value reported for unreachable targets in
// query responses.
const Unreachable = msbfs.NoLevel

// SlowThreshold reports the configured slow-query latency bound.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.slowThreshold
}
