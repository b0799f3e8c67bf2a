// Package svc is a fixture service that handles both of core's ops.
package svc

import "fixture/internal/core"

// Handle serves one request.
func Handle(op uint8) int {
	switch op {
	case core.OpSent, core.OpUnsent:
		return 0
	}
	return -1
}
