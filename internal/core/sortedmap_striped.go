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
// Each stripe probe is its own one-stripe section (stripeSet.section), so
// a walk takes guards one at a time.

import (
	"slices"
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
		},
	}
	ext := &sortedExt[K, V]{
		cmp:          cmp,
		sms:          make([]collections.SortedMap[K, V], n),
		boundaries:   bs,
		rangeLockers: make([]*semlock.RangeTable[K], n),
	}
	for i := range t.stripes {
		sm := first
		if i > 0 {
			sm = newShard()
		}
		t.stripes[i] = newMapStripe[K, V](sm)
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

// dir is the direction of an order query or stripe walk. Ascending picks
// Ceiling/Higher/First, steps to the next stripe up and pins the range
// lock's lower bound at the origin; descending picks Floor/Lower/Last,
// steps down and pins the upper bound.
type dir int

const (
	up   dir = 1
	down dir = -1
)

// seek is the one order query on a sorted structure: the key nearest *k
// in direction d (*k itself excluded when strict), or the first key met
// coming from the far end — FirstKey going up, LastKey going down — when
// k is nil.
func seek[K comparable, V any](sm collections.SortedMap[K, V], d dir, k *K, strict bool) (K, bool) {
	switch {
	case k == nil && d == up:
		return sm.FirstKey()
	case k == nil:
		return sm.LastKey()
	case strict && d == up:
		return sm.HigherKey(*k)
	case strict:
		return sm.LowerKey(*k)
	case d == up:
		return sm.CeilingKey(*k)
	default:
		return sm.FloorKey(*k)
	}
}

// bufferedInStripe returns the buffered non-removed key of stripe si
// nearest *k in direction d (strict excludes *k); k == nil starts from
// the stripe's edge on the side the walk enters by. Caller holds stripe
// si's guard and guarantees *k lies in stripe si.
func (t *TransactionalSortedMap[K, V]) bufferedInStripe(l *mapLocal[K, V], si int, d dir, k *K, strict bool) (K, bool) {
	if k == nil {
		// boundaries[si-1] is the stripe's inclusive lower edge and
		// boundaries[si] its exclusive upper edge; the outermost stripes
		// have no edge on their outer side.
		switch {
		case d == up && si > 0:
			k, strict = &t.sorted.boundaries[si-1], false
		case d == down && si < len(t.stripes)-1:
			k, strict = &t.sorted.boundaries[si], true
		}
	}
	keys := l.sortedKeys
	// i is the first candidate: the far end of the index without a probe,
	// else the nearest key to *k in d.
	i := 0
	if k == nil && d == down {
		i = len(keys) - 1
	} else if k != nil {
		// keys[j] is the first key >= *k.
		j, found := slices.BinarySearchFunc(keys, *k, t.sorted.cmp)
		switch {
		case d == up && found && strict:
			i = j + 1
		case d == up, found && !strict:
			i = j
		default:
			i = j - 1
		}
	}
	for ; i >= 0 && i < len(keys) && t.sorted.stripeFor(keys[i]) == si; i += int(d) {
		if w, buffered := l.storeBuffer[keys[i]]; buffered && !w.removed {
			return keys[i], true
		}
	}
	var zero K
	return zero, false
}

// mergedInStripe returns the live key of stripe si nearest *k in
// direction d (strict excludes *k; k == nil means from the stripe's
// entering edge), merging the committed shard (skipping buffered
// removals) with buffered additions. Caller holds stripe si's guard.
func (t *TransactionalSortedMap[K, V]) mergedInStripe(l *mapLocal[K, V], si int, d dir, k *K, strict bool) (K, bool) {
	sm := t.sorted.sms[si]
	best, ok := seek(sm, d, k, strict)
	for ok {
		if w, buffered := l.storeBuffer[best]; !buffered || !w.removed {
			break
		}
		best, ok = seek(sm, d, &best, true)
	}
	// The buffered candidate wins when it is met first going in d.
	if bk, bok := t.bufferedInStripe(l, si, d, k, strict); bok && (!ok || int(d)*t.sorted.cmp(bk, best) < 0) {
		best, ok = bk, true
	}
	return best, ok
}

// walk finds the live key nearest *from in direction d (strict excludes
// *from), or the map's first (last) key when from == nil, walking
// interval stripes upward (downward). Each stripe probe is its own
// section on that stripe alone, and leaves a range-lock entry in that
// stripe's table: the probed gap plus the result in the
// stripe that answers, the whole scanned interval in stripes observed
// empty. A navigation query (from != nil) also key-locks its result —
// CeilingKey(k) == k reads that key, so its value writer must conflict;
// an endpoint query takes no key lock (Table 5: first/last lock only):
// the inclusive range bound already catches the result's removal, and a
// value-only rewrite of the minimum does not change which key is first.
func (t *TransactionalSortedMap[K, V]) walk(tx *stm.Tx, d dir, from *K, strict bool) (K, bool) {
	start := 0
	if d == down {
		start = len(t.stripes) - 1
	}
	if from != nil {
		start = t.sorted.stripeFor(*from)
	}
	l := t.local(tx)
	var res K
	var found bool
	for si := start; si >= 0 && si < len(t.stripes) && !found; si += int(d) {
		t.section(tx, &l.footprint, si, si+1, DefaultOpCost, func() {
			e := t.newRangeLock(l, si)
			// The origin pins the bound the walk leaves behind (Lo going
			// up, Hi going down); the result pins the other, inclusively.
			// Not found: that bound stays nil — the stripe's whole
			// remaining interval was observed empty.
			var k *K
			if si == start && from != nil {
				if d == up {
					e.setLo(*from, strict)
					k = e.Lo
				} else {
					e.setHi(*from, strict)
					k = e.Hi
				}
			}
			if r, ok := t.mergedInStripe(l, si, d, k, strict); ok {
				if d == up {
					e.setHi(r, false)
				} else {
					e.setLo(r, false)
				}
				if from != nil {
					t.lockKeyLocked(l, r)
				}
				res, found = r, true
			}
		})
	}
	return res, found
}

// advance finds the next live merged key after it.last (or from the
// view's lower bound), locking and recording it: the scan owns one
// widening range-lock entry in the stripe it is positioned in (it.lock,
// it.si) and probes that stripe in a section of its own. Exhausting a
// stripe pins its entry to the view's upper bound (when the bound lies
// in that stripe) or extends it to the stripe's upper edge and moves on.
func (it *SortedIterator[K, V]) advance() (K, V, bool) {
	v, l := &it.view, it.l
	t := v.t
	n := len(t.stripes)
	var outK K
	var outV V
	found := false
	for !found && it.si < n {
		si := it.si
		t.section(it.tx, &l.footprint, si, si+1, DefaultOpCost, func() {
			e := it.lock
			if e == nil {
				e = t.newRangeLock(l, si)
				if v.hasLo && t.sorted.stripeFor(v.loKey) == si {
					e.setLo(v.loKey, false)
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
			res, ok := t.mergedInStripe(l, si, up, from, strict)
			if ok && v.hasHi && t.sorted.cmp(res, v.hiKey) >= 0 {
				ok = false
			}
			if ok {
				t.lockKeyLocked(l, res)
				e.setHi(res, false)
				it.last, it.returned = res, true
				if w, buffered := l.storeBuffer[res]; buffered {
					outK, outV, found = res, w.val, true
				} else {
					val, _ := t.sorted.sms[si].Get(res)
					outK, outV, found = res, val, true
				}
				return
			}
			// Stripe exhausted within the view.
			if v.hasHi && t.sorted.stripeFor(v.hiKey) == si {
				// The view bound lies in this stripe: pin the entry to
				// it ([.., hi) observed empty) and stop the scan.
				e.setHi(v.hiKey, true)
				it.si = n
			} else {
				// Extend to the stripe's upper edge and move on.
				e.Hi = nil
				e.HiExcl = false
				it.si, it.lock = si+1, nil
			}
		})
	}
	return outK, outV, found
}
