package stm

import "math/rand"

// BackoffPolicy is a pluggable contention-management policy: given how
// many times a transaction has failed, it chooses how long to stall
// before the next attempt. The paper (§5.1) notes that optimistic
// concurrency control "can suffer from livelock since long-running
// transactions may be continuously rolled back by shorter ones" and
// defers to contention-management policies; these are the standard ones
// from that literature.
type BackoffPolicy interface {
	// Backoff returns the stall in cycles before attempt+1. rng is the
	// owning thread's deterministic source.
	Backoff(attempt int, rng *rand.Rand) uint64
}

// ExponentialBackoff doubles a randomized base stall per failure, up to
// a fixed cap; the default policy.
type ExponentialBackoff struct{}

// Backoff implements BackoffPolicy.
func (ExponentialBackoff) Backoff(attempt int, rng *rand.Rand) uint64 {
	base := uint64(backoffBase) << min(attempt, backoffMaxShift)
	return base + uint64(rng.Int63n(int64(base)))
}

// AggressiveRetry barely waits at all — the "Aggressive" contention
// manager: maximal optimism, maximal livelock exposure.
type AggressiveRetry struct{}

// Backoff implements BackoffPolicy.
func (AggressiveRetry) Backoff(attempt int, rng *rand.Rand) uint64 {
	return 1 + uint64(rng.Int63n(4))
}

var defaultPolicy BackoffPolicy = ExponentialBackoff{}

// SetBackoffPolicy installs a contention-management policy for this
// worker; nil restores the default randomized exponential backoff.
func (t *Thread) SetBackoffPolicy(p BackoffPolicy) { t.policy = p }
