package core

// The order-dependent half of TransactionalSortedMap (DESIGN.md §4.5).
// Hash-striping keys would force every iterator and navigation query to
// visit every stripe, so the sorted map partitions the *key space*
// instead: contiguous intervals, split by an immutable boundary vector,
// each interval fusing its own guard, sorted shard, key-lock table and
// range-lock table (one interval covering everything when there are no
// boundaries). Point operations (Get/Put/Remove) land on one interval
// stripe exactly like the hash-striped map; order-dependent operations
// walk stripes one at a time, in interval order, laying a chain of
// per-stripe range locks that together cover exactly the gap observed:
//
//   - CeilingKey(k) = r: a [k, r] entry when both lie in one stripe;
//     otherwise [k, edge) in k's stripe, whole-interval entries in the
//     empty stripes crossed, and [edge, r] in r's stripe.
//   - FirstKey/LastKey: a walk from the bottom (top) of the key space —
//     Table 5's first/last locks are "the ranges below (above) the
//     answer are empty", which any endpoint-changing commit necessarily
//     violates via the ordinary per-stripe range sweep.
//   - Iterators own one widening entry per stripe entered, so a scan
//     confined to one interval holds exactly one stripe's locks.
//
// Guards are only ever taken one at a time on the retry path (each
// stripe probe is its own open-nested critical section), and in
// ascending id order by lockSpan on the snapshot path, so every hold is
// compatible with the commit protocol's sorted footprint acquisition.
// Each stripe joins the transaction's guard footprint (touch) before
// its probe, exactly like the hash-striped map.

import (
	"sort"

	"tcc/internal/collections"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// NewRangeStripedTransactionalSortedMap creates a sorted map
// partitioned into contiguous key intervals: stripe 0 owns keys below
// boundaries[0], stripe i owns [boundaries[i-1], boundaries[i]), the
// last stripe owns the tail. newShard is called once per stripe, so
// the shards start empty and the wrapper owns them outright. The
// boundary vector is sorted and deduplicated, then truncated so the
// stripe count is a power of two in [1, 64] (the map's clamp); use
// SampleRangeBoundaries to derive boundaries from expected keys.
func NewRangeStripedTransactionalSortedMap[K comparable, V any](newShard func() collections.SortedMap[K, V], boundaries []K) *TransactionalSortedMap[K, V] {
	first := newShard()
	cmp := first.Compare
	bs := append([]K(nil), boundaries...)
	sort.Slice(bs, func(i, j int) bool { return cmp(bs[i], bs[j]) < 0 })
	bs = dedupeSorted(bs, cmp)
	// Largest power-of-two stripe count expressible with these
	// boundaries (n stripes need n-1 of them), clamped like the map.
	n := 1
	for n*2 <= len(bs)+1 && n*2 <= maxStripes {
		n *= 2
	}
	bs = bs[:n-1]

	t := &TransactionalSortedMap[K, V]{
		TransactionalMap: TransactionalMap[K, V]{
			stripeSet: newStripeSet(n),
			stripes:   make([]*mapStripe[K, V], n),
			opCost:    DefaultOpCost,
		},
	}
	ext := &sortedExt[K, V]{
		cmp:          cmp,
		sms:          make([]collections.SortedMap[K, V], n),
		boundaries:   bs,
		rangeLockers: make([]*semlock.RangeTable[K], n),
	}
	for i, g := range t.guards {
		sm := first
		if i > 0 {
			sm = newShard()
		}
		t.stripes[i] = newMapStripe[K, V](g, sm)
		ext.sms[i] = sm
		ext.rangeLockers[i] = semlock.NewRangeTable[K](cmp)
	}
	t.sorted = ext
	t.SetName("sortedmap")
	return t
}

// dedupeSorted removes adjacent duplicates from a cmp-sorted slice.
func dedupeSorted[K comparable](s []K, cmp func(a, b K) int) []K {
	out := s[:0]
	for i, k := range s {
		if i == 0 || cmp(k, out[len(out)-1]) != 0 {
			out = append(out, k)
		}
	}
	return out
}

// SampleRangeBoundaries derives an interval-boundary vector for
// NewRangeStripedTransactionalSortedMap from a sample of expected keys:
// the (i/n)-quantiles of the sorted, deduplicated sample, for the
// normalized (power-of-two, clamped) stripe count n. A sample smaller
// than the stripe count yields fewer boundaries and hence fewer
// stripes — the constructor clamps again.
func SampleRangeBoundaries[K comparable](sample []K, cmp func(a, b K) int, stripes int) []K {
	n := normalizeStripes(stripes)
	ks := append([]K(nil), sample...)
	sort.Slice(ks, func(i, j int) bool { return cmp(ks[i], ks[j]) < 0 })
	ks = dedupeSorted(ks, cmp)
	var out []K
	for i := 1; i < n; i++ {
		idx := i * len(ks) / n
		if idx > 0 && idx < len(ks) {
			out = append(out, ks[idx])
		}
	}
	return dedupeSorted(out, cmp)
}

// bufferCeilingInStripe returns the smallest buffered non-removed key
// of stripe si that is >= *k (> when strict); k == nil starts from the
// stripe's lower edge. Caller holds stripe si's guard and guarantees
// *k lies in stripe si.
func (t *TransactionalSortedMap[K, V]) bufferCeilingInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	var cand K
	var ok bool
	switch {
	case k != nil && strict:
		cand, ok = l.sortedKeys.HigherKey(*k)
	case k != nil:
		cand, ok = l.sortedKeys.CeilingKey(*k)
	case si == 0:
		cand, ok = l.sortedKeys.FirstKey()
	default:
		cand, ok = l.sortedKeys.CeilingKey(t.sorted.boundaries[si-1])
	}
	for ok && t.sorted.stripeFor(cand) == si {
		if w, buffered := l.storeBuffer[cand]; buffered && !w.removed {
			return cand, true
		}
		cand, ok = l.sortedKeys.HigherKey(cand)
	}
	var zero K
	return zero, false
}

// bufferFloorInStripe is the descending mirror of bufferCeilingInStripe.
func (t *TransactionalSortedMap[K, V]) bufferFloorInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	var cand K
	var ok bool
	switch {
	case k != nil && strict:
		cand, ok = l.sortedKeys.LowerKey(*k)
	case k != nil:
		cand, ok = l.sortedKeys.FloorKey(*k)
	case si == len(t.stripes)-1:
		cand, ok = l.sortedKeys.LastKey()
	default:
		// Keys below boundaries[si] belong to stripes <= si.
		cand, ok = l.sortedKeys.LowerKey(t.sorted.boundaries[si])
	}
	for ok && t.sorted.stripeFor(cand) == si {
		if w, buffered := l.storeBuffer[cand]; buffered && !w.removed {
			return cand, true
		}
		cand, ok = l.sortedKeys.LowerKey(cand)
	}
	var zero K
	return zero, false
}

// mergedCeilingInStripe returns the smallest live key of stripe si
// that is >= *k (> when strict; k == nil means from the stripe's lower
// edge), merging the committed shard (skipping buffered removals) with
// buffered additions. Caller holds stripe si's guard.
func (t *TransactionalSortedMap[K, V]) mergedCeilingInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	sm := t.sorted.sms[si]
	var best K
	var ok bool
	switch {
	case k == nil:
		best, ok = sm.FirstKey()
	case strict:
		best, ok = sm.HigherKey(*k)
	default:
		best, ok = sm.CeilingKey(*k)
	}
	for ok {
		if w, buffered := l.storeBuffer[best]; !buffered || !w.removed {
			break
		}
		best, ok = sm.HigherKey(best)
	}
	if bk, bok := t.bufferCeilingInStripe(l, si, k, strict); bok && (!ok || t.sorted.cmp(bk, best) < 0) {
		best, ok = bk, true
	}
	return best, ok
}

// mergedFloorInStripe is the descending mirror of mergedCeilingInStripe.
func (t *TransactionalSortedMap[K, V]) mergedFloorInStripe(l *mapLocal[K, V], si int, k *K, strict bool) (K, bool) {
	sm := t.sorted.sms[si]
	var best K
	var ok bool
	switch {
	case k == nil:
		best, ok = sm.LastKey()
	case strict:
		best, ok = sm.LowerKey(*k)
	default:
		best, ok = sm.FloorKey(*k)
	}
	for ok {
		if w, buffered := l.storeBuffer[best]; !buffered || !w.removed {
			break
		}
		best, ok = sm.LowerKey(best)
	}
	if bk, bok := t.bufferFloorInStripe(l, si, k, strict); bok && (!ok || t.sorted.cmp(bk, best) > 0) {
		best, ok = bk, true
	}
	return best, ok
}

// snapshotRouted is the one gate between the two ways a navigation query
// runs inside AtomicRead: a range-striped map answers from the committed
// shards under a guard span (snapshotCeiling/snapshotFloor); a
// single-stripe map has no such branch, so its walk's first touch drops
// the transaction to the retry path (Stats.SnapshotFallbacks). Which of
// the two survives is the history oracle's decision (ROADMAP aim 3), not
// this file's.
func (t *TransactionalSortedMap[K, V]) snapshotRouted(tx *stm.Tx) bool {
	return t.mask != 0 && tx.IsSnapshot()
}

// walkUp finds the smallest live key >= *from (> when strict), or the
// map's first key when from == nil, walking interval stripes upward.
// Each stripe probe is its own open-nested critical section under that
// stripe's guard alone (touched first, so the commit footprint is in
// place), and leaves a range-lock entry in that stripe's table: the
// probed gap plus the result in the stripe that answers, the whole
// scanned interval in stripes observed empty. A navigation query
// (from != nil) also key-locks its result — CeilingKey(k) == k reads
// that key, so its value writer must conflict; an endpoint query takes
// no key lock (Table 5: first/last lock only): the inclusive range
// bound already catches the result's removal, and a value-only rewrite
// of the minimum does not change which key is first.
func (t *TransactionalSortedMap[K, V]) walkUp(tx *stm.Tx, from *K, strict bool) (K, bool) {
	if t.snapshotRouted(tx) {
		return t.snapshotCeiling(tx, from, strict)
	}
	l := t.local(tx)
	start := 0
	if from != nil {
		start = t.sorted.stripeFor(*from)
	}
	var res K
	var found bool
	for si := start; si < len(t.stripes) && !found; si++ {
		si := si
		st := t.touch(tx, l, si)
		_ = tx.Open(func(*stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			e := t.newRangeLock(l, si)
			var k *K
			if si == start && from != nil {
				e.setLo(*from, strict)
				k = e.Lo
			}
			if r, ok := t.mergedCeilingInStripe(l, si, k, strict); ok {
				e.setHi(r, false)
				if from != nil {
					t.lockKeyLocked(l, r)
				}
				res, found = r, true
			}
			// Not found: e.Hi stays nil — the stripe's whole remaining
			// interval was observed empty.
			return nil
		})
		tx.Thread().Clock.Tick(t.opCost)
	}
	return res, found
}

// walkDown is the descending mirror of walkUp (FloorKey/LowerKey/
// LastKey): stripes are probed downward from *from's interval (or the
// top), one guard at a time.
func (t *TransactionalSortedMap[K, V]) walkDown(tx *stm.Tx, from *K, strict bool) (K, bool) {
	if t.snapshotRouted(tx) {
		return t.snapshotFloor(tx, from, strict)
	}
	l := t.local(tx)
	start := len(t.stripes) - 1
	if from != nil {
		start = t.sorted.stripeFor(*from)
	}
	var res K
	var found bool
	for si := start; si >= 0 && !found; si-- {
		si := si
		st := t.touch(tx, l, si)
		_ = tx.Open(func(*stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			e := t.newRangeLock(l, si)
			var k *K
			if si == start && from != nil {
				e.setHi(*from, strict)
				k = e.Hi
			}
			if r, ok := t.mergedFloorInStripe(l, si, k, strict); ok {
				e.setLo(r, false)
				if from != nil {
					t.lockKeyLocked(l, r)
				}
				res, found = r, true
			}
			return nil
		})
		tx.Thread().Clock.Tick(t.opCost)
	}
	return res, found
}

// advance finds the next live merged key after it.last (or from it.lo),
// locking and recording it: the scan owns one widening range-lock entry
// in the stripe it is positioned in (it.lock, it.si) and probes that
// stripe under its guard alone. Exhausting a stripe pins its entry to
// the view bound (when the bound lies in that stripe) or extends it to
// the stripe's upper edge and moves on.
func (it *SortedIterator[K, V]) advance() (K, V, bool) {
	t, l := it.t, it.l
	n := len(t.stripes)
	var outK K
	var outV V
	found := false
	for !found && it.si < n {
		si := it.si
		st := t.touch(it.tx, l, si)
		_ = it.tx.Open(func(*stm.Tx) error {
			st.guard.Lock()
			defer st.guard.Unlock()
			e := it.lock
			if e == nil {
				e = t.newRangeLock(l, si)
				if it.lo != nil && t.sorted.stripeFor(*it.lo) == si {
					e.setLo(*it.lo, false)
				}
				it.lock = e
			}
			// Resume strictly after the last returned key when it lies in
			// this stripe, else from the entry's lower bound (nil: the
			// stripe's edge).
			from, strict := e.Lo, false
			if it.returned && t.sorted.stripeFor(it.last) == si {
				from, strict = &it.last, true
			}
			res, ok := t.mergedCeilingInStripe(l, si, from, strict)
			if ok && it.hi != nil && t.sorted.cmp(res, *it.hi) >= 0 {
				ok = false
			}
			if ok {
				t.lockKeyLocked(l, res)
				e.setHi(res, false)
				it.last, it.returned = res, true
				if w, buffered := l.storeBuffer[res]; buffered {
					outK, outV, found = res, w.val, true
				} else {
					v, _ := t.sorted.sms[si].Get(res)
					outK, outV, found = res, v, true
				}
				return nil
			}
			// Stripe exhausted within the view.
			if it.hi != nil && t.sorted.stripeFor(*it.hi) == si {
				// The view bound lies in this stripe: pin the entry to
				// it ([.., hi) observed empty) and stop the scan.
				e.setHi(*it.hi, true)
				it.si = n
			} else {
				// Extend to the stripe's upper edge and move on.
				e.Hi = nil
				e.HiExcl = false
				it.si, it.lock = si+1, nil
			}
			return nil
		})
		it.tx.Thread().Clock.Tick(t.opCost)
	}
	return outK, outV, found
}

// snapshotCeiling answers CeilingKey/HigherKey — FirstKey when k is nil
// — for a snapshot transaction: the committed answer, read with the
// guards of every stripe the query could span held at once (ascending,
// so the hold is compatible with the commit protocol's sorted footprint
// acquisition), so a multi-stripe commit is seen entirely or not at all.
func (t *TransactionalSortedMap[K, V]) snapshotCeiling(tx *stm.Tx, k *K, strict bool) (K, bool) {
	lo, hi := 0, len(t.stripes)
	if k != nil {
		lo = t.sorted.stripeFor(*k)
	}
	var res K
	var found bool
	t.lockSpan(lo, hi)
	for si := lo; si < hi && !found; si++ {
		sm := t.sorted.sms[si]
		switch {
		case si > lo || k == nil:
			res, found = sm.FirstKey()
		case strict:
			res, found = sm.HigherKey(*k)
		default:
			res, found = sm.CeilingKey(*k)
		}
	}
	t.unlockSpan(lo, hi)
	tx.Thread().Clock.Tick(t.opCost)
	return res, found
}

// snapshotFloor is the descending mirror of snapshotCeiling.
func (t *TransactionalSortedMap[K, V]) snapshotFloor(tx *stm.Tx, k *K, strict bool) (K, bool) {
	hi := len(t.stripes) - 1
	if k != nil {
		hi = t.sorted.stripeFor(*k)
	}
	var res K
	var found bool
	t.lockSpan(0, hi+1)
	for si := hi; si >= 0 && !found; si-- {
		sm := t.sorted.sms[si]
		switch {
		case si < hi || k == nil:
			res, found = sm.LastKey()
		case strict:
			res, found = sm.LowerKey(*k)
		default:
			res, found = sm.FloorKey(*k)
		}
	}
	t.unlockSpan(0, hi+1)
	tx.Thread().Clock.Tick(t.opCost)
	return res, found
}
