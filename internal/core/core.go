// Package core implements the CLASH protocol (Content and Load-Aware
// Scalable Hashing, Misra/Castro/Lee, ICDCS 2004): a redirection layer that
// sits between hierarchical identifier keys and a conventional DHT.
//
// CLASH partitions the identifier key space into variable-depth key groups.
// Each group is identified by a (prefix, depth) pair and is placed on the
// server returned by the DHT's Map() applied to the group's virtual key. An
// overloaded server splits its hottest group one bit deeper: the left child
// maps back to itself, the right child is transferred to whichever peer the
// DHT chooses (ACCEPT_KEYGROUP). Cold sibling leaves are merged back into
// their parent bottom-up. Clients locate the current group of a key with a
// modified binary search over the depth, driven by INCORRECT_DEPTH replies.
//
// The package is transport- and scheduler-agnostic: Server mutates a local
// ServerTable and returns the messages/transfers that a driver (the live
// overlay in internal/overlay, or the planned discrete-event simulator
// internal/sim) must deliver.
package core

import (
	"errors"

	"clash/internal/bitkey"
)

// ServerID identifies a CLASH server. In the overlay it is the node's
// transport address, which is also its chord member name.
type ServerID string

// NoServer is the zero ServerID, used where the paper writes "-1" (e.g. the
// ParentID of a root entry).
const NoServer ServerID = ""

// Errors returned by the core protocol.
var (
	// ErrUnknownGroup is returned when an operation names a key group the
	// server has no entry for.
	ErrUnknownGroup = errors.New("clash: unknown key group")
	// ErrNotActive is returned when an operation requires an active (leaf)
	// entry but the entry has already been split.
	ErrNotActive = errors.New("clash: key group is not active on this server")
	// ErrAlreadyManaged is returned when a server is asked to accept a key
	// group it already has an entry for.
	ErrAlreadyManaged = errors.New("clash: key group already managed")
	// ErrMaxDepth is returned when a split would exceed the key length N.
	ErrMaxDepth = errors.New("clash: cannot split beyond key length")
	// ErrCannotMerge is returned when a consolidation attempt is not
	// permitted (e.g. no child entries, or the entry is a root).
	ErrCannotMerge = errors.New("clash: key group cannot be consolidated")
	// ErrBadKey is returned when a key does not match the configured key
	// length.
	ErrBadKey = errors.New("clash: key length mismatch")
	// ErrCovered is returned when accepting or restoring a key group would
	// overlap key ranges already served by this server's active entries (an
	// active ancestor or active descendants exist): the incoming copy is
	// stale and must be discarded, but any query state it carries still
	// belongs here and should be installed by the caller.
	ErrCovered = errors.New("clash: key range already covered by active groups")
	// ErrDepthRange is returned when a depth lies outside [0, N].
	ErrDepthRange = errors.New("clash: depth out of range")
)

// Status is the result status of an ACCEPT_OBJECT request (paper §5, cases
// a–c).
type Status int

const (
	// StatusOK means the client guessed the correct depth.
	StatusOK Status = iota + 1
	// StatusOKCorrected means this server stores the object but the client's
	// depth was wrong; the reply carries the corrected depth.
	StatusOKCorrected
	// StatusIncorrectDepth means this server is not responsible for the
	// object; the reply carries the longest prefix match dmin.
	StatusIncorrectDepth
)

// String renders the status for logs and test failures.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusOKCorrected:
		return "OK_CORRECTED"
	case StatusIncorrectDepth:
		return "INCORRECT_DEPTH"
	default:
		return "UNKNOWN"
	}
}

// AcceptObjectResult is a server's reply to an ACCEPT_OBJECT request.
type AcceptObjectResult struct {
	// Status distinguishes the paper's three cases.
	Status Status
	// Group is the active key group that stores the object (valid for OK and
	// OKCorrected).
	Group bitkey.Group
	// CorrectDepth is the depth of Group (valid for OK and OKCorrected).
	CorrectDepth int
	// DMin is the longest prefix match between the key and any entry on this
	// server (valid for IncorrectDepth).
	DMin int
}

// Transfer describes one key-group hand-off produced by a split: the group
// that must be sent to To in an ACCEPT_KEYGROUP message, along with the
// parent that keeps the tree linkage.
type Transfer struct {
	Group  bitkey.Group
	To     ServerID
	Parent ServerID
}

// SplitResult describes a split that succeeded: one right child leaves the
// server. A failed split returns no SplitResult and changes nothing.
type SplitResult struct {
	// Split is the group that was split (now inactive on the server).
	Split bitkey.Group
	// Kept is the left child of the last split, which the server continues
	// to manage (active). After retries it is not the only child that
	// stays: each self-mapped retry leaves its left child active here too.
	Kept bitkey.Group
	// Transfer is the right child handed to a peer: the first candidate
	// right child the DHT mapped to another server.
	Transfer Transfer
	// Retries counts how many times the DHT mapped the right child back to
	// the splitting server (paper §5). Each retry splits that right child
	// again and leaves its left child active on the splitting server.
	Retries int
}

// MergeResult describes the outcome of consolidating a parent group.
type MergeResult struct {
	// Merged is the parent group that became active again.
	Merged bitkey.Group
	// ReclaimedFrom is the server that was managing the right child; the
	// driver must send it a RELEASE_KEYGROUP message for ReleasedGroup.
	ReclaimedFrom ServerID
	// ReleasedGroup is the right-child group to reclaim.
	ReleasedGroup bitkey.Group
}

// LoadReport is the periodic message a leaf server sends to the parent of one
// of its key groups so the parent can decide on consolidation.
type LoadReport struct {
	From  ServerID
	To    ServerID
	Group bitkey.Group
	Load  float64
}
