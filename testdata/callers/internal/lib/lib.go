// Package lib is a fixture for the caller gate: cmd/app calls Used, and
// nothing calls Unused.
package lib

// Used has a caller.
func Used() int { return 1 }

// Unused has none.
func Unused() int { return 2 }
