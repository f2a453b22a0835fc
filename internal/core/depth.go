package core

import (
	"errors"
	"fmt"

	"clash/internal/bitkey"
)

// ErrDepthNotFound is returned when the depth search cannot locate an active
// key group for a key (which indicates an inconsistent or empty overlay).
var ErrDepthNotFound = errors.New("clash: depth resolution failed")

// Probe sends one ACCEPT_OBJECT request for the key at the given estimated
// depth and returns the server's reply. Implementations route the request
// through the DHT: they build the virtual key for (key, depth), Map() it to a
// server and deliver the message (counting whatever per-lookup cost applies).
type Probe func(depth int) (AcceptObjectResult, error)

// ResolveResult summarises one client depth resolution.
type ResolveResult struct {
	// Depth is the correct depth of the key's current group.
	Depth int
	// Group is the active group that contains the key.
	Group bitkey.Group
	// Probes is the number of ACCEPT_OBJECT requests that were needed.
	Probes int
}

// ResolveDepth finds the correct depth for an N-bit identifier key by probing
// servers through the supplied Probe, starting from initialGuess (clamped
// into [1, N]; pass 0 or any out-of-range value to start in the middle).
//
// It is the paper's modified binary search over (0, N], with these update
// rules for an INCORRECT_DEPTH(dmin) reply to a probe at depth d:
//
//  1. if dmin ≥ d, the correct depth dc is at least dmin+1 (no new upper
//     bound);
//  2. if dmin < d, then dmin+1 ≤ dc < d, so both bounds tighten.
//
// It converges in O(log N) probes; in practice fewer, because the reply's
// dmin jumps the lower bound by many levels at once.
func ResolveDepth(n int, initialGuess int, probe Probe) (ResolveResult, error) {
	if probe == nil {
		return ResolveResult{}, fmt.Errorf("clash: nil probe")
	}
	if n < 1 || n > bitkey.MaxBits {
		return ResolveResult{}, fmt.Errorf("%w: key length %d", bitkey.ErrBadLength, n)
	}
	low, high := 1, n
	d := initialGuess
	if d < low || d > high {
		d = (low + high + 1) / 2
	}
	probes := 0
	for probes < 2*n+4 {
		res, err := probe(d)
		if err != nil {
			return ResolveResult{}, fmt.Errorf("probe depth %d: %w", d, err)
		}
		probes++
		switch res.Status {
		case StatusOK, StatusOKCorrected:
			return ResolveResult{Depth: res.CorrectDepth, Group: res.Group, Probes: probes}, nil
		case StatusIncorrectDepth:
			dmin := res.DMin
			if dmin >= d {
				// Rule 1: only the lower bound moves.
				low = max(low, dmin+1)
			} else {
				// Rule 2: the correct depth lies in (dmin, d).
				low = max(low, dmin+1)
				high = min(high, d-1)
			}
			if low > high {
				// The bounds crossed (possible only when the overlay mutated
				// between probes); restart the search over the full range.
				low, high = 1, n
			}
			d = (low + high + 1) / 2
		default:
			return ResolveResult{}, fmt.Errorf("%w: unexpected status %v", ErrDepthNotFound, res.Status)
		}
	}
	return ResolveResult{}, fmt.Errorf("%w: no convergence after %d probes", ErrDepthNotFound, probes)
}
