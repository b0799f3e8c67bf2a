// Package core is a fixture for the op gate: cmd/app sends OpSent, and
// only the service handles OpUnsent.
package core

// OpSent has a sender.
const OpSent uint8 = 1

const OpUnsent uint8 = 2
