package obs

import (
	"fmt"
	"strings"

	"tcc/internal/obs/metrics"
)

// histShards bounds cross-CPU cache contention: observers index by
// their CPU lane, so threads on different lanes touch different
// cache lines. Merging walks all shards.
const histShards = 16

// Hist is a log-bucketed histogram (metrics.LogBuckets power-of-two
// buckets): lock-free, wait-free observation, sharded per CPU lane.
// The zero value is ready to use.
type Hist struct {
	shards [histShards]metrics.LogShard
}

// Observe records v on the shard for CPU lane. Safe for concurrent
// use; never allocates.
func (h *Hist) Observe(lane int, v uint64) {
	h.shards[uint(lane)%histShards].Observe(v)
}

// HistSnapshot is a merged, immutable view of a Hist. P50/P99/P999
// are the precomputed quantile upper bounds (see Quantile), exported
// so JSON consumers get them without re-deriving from Buckets.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	P50     uint64       `json:"p50"`
	P99     uint64       `json:"p99"`
	P999    uint64       `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty bucket: values in [Lo, Hi].
type HistBucket struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  uint64 `json:"n"`
}

// Snapshot merges all shards. It may run concurrently with Observe;
// the result is a consistent-enough view for reporting.
func (h *Hist) Snapshot() HistSnapshot {
	var c metrics.LogCounts
	for i := range h.shards {
		c.Add(&h.shards[i])
	}
	snap := HistSnapshot{
		Count: c.Count,
		Sum:   c.Sum,
		P50:   c.Quantile(0.50),
		P99:   c.Quantile(0.99),
		P999:  c.Quantile(0.999),
	}
	for i, n := range c.Buckets {
		if n == 0 {
			continue
		}
		lo, hi := metrics.BucketBounds(i)
		snap.Buckets = append(snap.Buckets, HistBucket{Lo: lo, Hi: hi, N: n})
	}
	return snap
}

// Mean returns the arithmetic mean of observed values (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]):
// the inclusive upper edge of the bucket holding the q-th value.
func (s HistSnapshot) Quantile(q float64) uint64 {
	c := metrics.LogCounts{Count: s.Count}
	for _, b := range s.Buckets {
		c.Buckets[metrics.BucketOf(b.Hi)] = b.N
	}
	return c.Quantile(q)
}

// String renders a compact one-line summary, e.g.
// "n=128 mean=412.0 p50≤511 p99≤4095".
func (s HistSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50≤%d p99≤%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.99))
	return b.String()
}
