package stm

import (
	"fmt"
	"sync/atomic"
)

// Status is the lifecycle state of a top-level transaction.
type Status int32

// Transaction lifecycle. Violated is reachable only from Active: once a
// transaction is Prepared it has logically committed and can no longer
// be aborted by anyone (the point of no return), which is what makes
// semantic conflict detection race-free — a committer either violates a
// still-active reader or observes that the reader already serialized
// before it.
const (
	StatusActive Status = iota
	StatusPrepared
	StatusCommitted
	StatusViolated
	StatusAborted
)

// String implements fmt.Stringer for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusViolated:
		return "violated"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// Handle is a shareable reference to a running top-level transaction
// attempt, used as the owner of semantic locks. The paper (§4,
// "Program-directed transaction abort") requires that an open-nested
// transaction can obtain a reference to its top-level transaction, store
// it in a lock table, and that another transaction can later use it to
// abort the owner; Handle is that reference.
//
// Each Thread has one Handle, and every attempt on the thread runs under
// it: a handle names its thread's running attempt. Whoever stores it —
// a lock table, a lockword's owner slot — drops it by the time that
// attempt's handlers have run. Between the attempt's end and the next
// begin, Violate is a no-op; a Violate on a handle kept past that point
// can abort a later attempt of the same thread, which costs that attempt
// a spurious retry and nothing else.
type Handle struct {
	// state publishes the status and the violation reason in one word, so
	// whoever sees a violation also sees why: nil is Active, Prepared,
	// Committed and Aborted are shared values, and a successful Violate
	// publishes its Reason's {Violated, text}.
	state atomic.Pointer[handleState]
	// id is a process-global unique identity drawn when a retry-path
	// attempt begins; snapshot attempts, which enter no lock table, and
	// handles made outside a transaction (tests) have id 0. Semantic lock
	// tables violate conflicting owners in ascending id order, so
	// violation order — and hence trace order — is deterministic under
	// the simulator's deterministic schedules (Go map iteration would
	// randomize it).
	id uint64
	// birth is the worker-local time the attempt began, available to
	// age-based contention policies.
	birth uint64
	// txid is the observability id of the owning top-level transaction
	// (0 when tracing was disabled at begin). It lets a conflicting
	// transaction that finds this handle in a lockword attribute its
	// abort to the holder. Atomic: that reader may load it after the
	// holder released the word, while the holder's next begin rewrites it.
	txid atomic.Uint64
}

// handleState is what Handle.state points at.
type handleState struct {
	status Status
	reason string
}

// Reason is why a transaction is violated: an immutable {Violated, text}
// built once by NewReason and shared by every Violate that names it, so a
// violation publishes a pointer and allocates nothing. A collection keeps
// one per conflict kind it reports.
type Reason struct{ state handleState }

// NewReason builds the Reason whose violations report text (see
// Handle.ViolationReason and Stats.ViolationsByReason).
func NewReason(text string) *Reason {
	return &Reason{handleState{status: StatusViolated, reason: text}}
}

var (
	statePrepared  = &handleState{status: StatusPrepared}
	stateCommitted = &handleState{status: StatusCommitted}
	stateAborted   = &handleState{status: StatusAborted}
)

// handleIDs hands out Handle identities; see Handle.id.
var handleIDs atomic.Uint64

// Status returns the current lifecycle state.
func (h *Handle) Status() Status {
	if s := h.state.Load(); s != nil {
		return s.status
	}
	return StatusActive
}

// ID returns the identity of the running attempt: process-global and
// ascending for retry-path attempts, 0 for snapshot attempts and handles
// not created by a transaction. Lock tables use it as the canonical
// violation order; collections use it to tell one attempt from the next.
func (h *Handle) ID() uint64 { return h.id }

// Violate requests that the owning transaction abort (program-directed
// abort). It succeeds only while the transaction is still Active; the
// victim observes the state change at its next transactional operation
// or at its pre-commit check and rolls itself back. The return value
// reports whether the victim will abort: false means the victim already
// serialized (Prepared/Committed) or is gone, and no conflict exists. The
// victim reports r as its reason; r must come from NewReason.
func (h *Handle) Violate(r *Reason) bool {
	s := h.state.Load()
	if s == nil {
		if h.state.CompareAndSwap(nil, &r.state) {
			return true
		}
		s = h.state.Load()
	}
	return s.status == StatusViolated
}

// ViolationReason returns the reason recorded by the successful Violate
// call, or "" if the transaction was never violated. The status and the
// reason are published together: whoever sees Violated sees the reason.
// Once the attempt has rolled back, the handle is Aborted and has no
// reason.
func (h *Handle) ViolationReason() string {
	if s := h.state.Load(); s != nil {
		return s.reason
	}
	return ""
}

// violated reports whether the transaction has been asked to abort.
func (h *Handle) violated() bool { return h.Status() == StatusViolated }

// toPrepared moves Active→Prepared, the point of no return. A failed
// CAS means a violator won the race and the commit must be abandoned.
func (h *Handle) toPrepared() bool {
	return h.state.CompareAndSwap(nil, statePrepared)
}

func (h *Handle) setCommitted() { h.state.Store(stateCommitted) }
func (h *Handle) setAborted()   { h.state.Store(stateAborted) }
