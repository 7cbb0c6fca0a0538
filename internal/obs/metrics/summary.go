package metrics

import (
	"math/bits"
	"sync/atomic"
)

// LogBuckets is the number of power-of-two buckets in a log-bucketed
// histogram. Bucket i holds values v with bits.Len64(v) == i, i.e.
// bucket 0 is {0}, bucket 1 is {1}, bucket 2 is [2,3], bucket 3 is
// [4,7], ... and the final bucket is open-ended.
const LogBuckets = 40

// BucketOf returns the bucket holding v.
func BucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= LogBuckets {
		return LogBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive value range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	switch {
	case i == 0:
		return 0, 0
	case i == LogBuckets-1:
		return 1 << (i - 1), ^uint64(0)
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}

// LogShard is one shard of a log-bucketed histogram, the unit both a
// Summary's ring slots and obs.Hist are arrays of: observers index a
// shard by their CPU lane, so threads on different lanes touch
// different cache lines. It lives here and not in obs because obs
// imports this package. The zero value is ready to use.
type LogShard struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	bucket [LogBuckets]atomic.Uint64
	_      [6]uint64 // pad to a cache-line boundary between shards
}

// Observe records v. Atomic-only, never allocates; safe for concurrent
// use.
func (s *LogShard) Observe(v uint64) {
	s.count.Add(1)
	s.sum.Add(v)
	s.bucket[BucketOf(v)].Add(1)
}

// Reset zeroes the shard.
func (s *LogShard) Reset() {
	s.count.Store(0)
	s.sum.Store(0)
	for b := range s.bucket {
		s.bucket[b].Store(0)
	}
}

// LogCounts is the merged, plain-integer view of any number of shards.
type LogCounts struct {
	Count   uint64
	Sum     uint64
	Buckets [LogBuckets]uint64
}

// Add merges s into c. It may run concurrently with Observe; the result
// is a consistent-enough view for reporting.
func (c *LogCounts) Add(s *LogShard) {
	c.Count += s.count.Load()
	c.Sum += s.sum.Load()
	for b := range s.bucket {
		c.Buckets[b] += s.bucket[b].Load()
	}
}

// Quantile returns an upper bound for the q-quantile (q clamped to
// [0,1]): the inclusive upper edge of the bucket holding the q-th of
// Count values, 0 if empty.
func (c *LogCounts) Quantile(q float64) uint64 {
	if c.Count == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := uint64(q * float64(c.Count-1))
	var seen, last uint64
	for i, n := range c.Buckets {
		if n == 0 {
			continue
		}
		seen += n
		_, last = BucketBounds(i)
		if rank < seen {
			break
		}
	}
	return last
}

// summaryShards bounds cross-CPU contention inside one ring slot.
// Smaller than obs.Hist's 16: a Summary carries windowSlots copies, so
// memory scales as slots × shards × buckets.
const summaryShards = 4

type summarySlot struct {
	shards [summaryShards]LogShard
}

// Summary is a time-windowed log-bucketed histogram: observations
// land in the current ring slot, rotation clears aged slots, and
// quantiles are computed over the merged live slots — so p50/p99/p999
// reflect the last window, not process lifetime.
type Summary struct {
	reg    *Registry
	labels []Label
	slots  [windowSlots]summarySlot
}

// Summary returns the windowed summary for name+labels, creating it
// on first use.
func (r *Registry) Summary(name, help string, labels ...Label) *Summary {
	m := r.getOrCreate(name, help, "summary", labels, func() instrument {
		return &Summary{reg: r, labels: labels}
	})
	return m.(*Summary)
}

// Observe records v on the given shard lane of the current window
// slot. Atomic-only, never allocates; safe for concurrent use.
func (s *Summary) Observe(lane int, v uint64) {
	slot := &s.slots[s.reg.cur.Load()%windowSlots]
	slot.shards[uint(lane)%summaryShards].Observe(v)
}

func (s *Summary) rotate(slot int) {
	sl := &s.slots[slot]
	for i := range sl.shards {
		sl.shards[i].Reset()
	}
}

// SummarySnapshot is the merged windowed view of a Summary.
type SummarySnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
}

// Snapshot merges every live slot and shard. It may run concurrently
// with Observe; the result is a consistent-enough view for scraping.
func (s *Summary) Snapshot() SummarySnapshot {
	var c LogCounts
	for si := range s.slots {
		for hi := range s.slots[si].shards {
			c.Add(&s.slots[si].shards[hi])
		}
	}
	return SummarySnapshot{
		Count: c.Count,
		Sum:   c.Sum,
		P50:   c.Quantile(0.50),
		P99:   c.Quantile(0.99),
		P999:  c.Quantile(0.999),
	}
}

func (s *Summary) snapshot() MetricSnapshot {
	sn := s.Snapshot()
	return MetricSnapshot{Labels: s.labels, Summary: &sn}
}
