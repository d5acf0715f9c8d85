//go:build race

package testkit

// Race reports whether the binary was built with the race detector, whose
// instrumentation allocates: allocation pins skip themselves under it.
const Race = true
