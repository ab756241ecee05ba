module repro

go 1.24

// The language level moved to 1.24 for package weak only; the runtime
// settings (timer channels, MPTCP listeners, ...) stay those the code was
// written and measured under.
godebug default=go1.22
