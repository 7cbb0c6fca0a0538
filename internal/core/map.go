// Package core implements the paper's contribution: transactional
// collection classes. They wrap existing, non-thread-safe collection
// implementations (internal/collections) and make them usable from
// long-running transactions without the unnecessary memory-level
// conflicts that wreck scalability when such structures are accessed
// directly inside transactions.
//
// The construction follows the paper's §5 guidelines exactly:
//
//   - The underlying structure is read only inside open-nested regions
//     that also take the appropriate semantic locks (key, size, empty,
//     range — Tables 2, 5, 8; Table 5's first/last locks are range locks
//     reaching to the end of the key space).
//   - Write operations never touch the underlying structure; they buffer
//     into transaction-local state (storeBuffer, addBuffer — Tables 3,
//     6, 9).
//   - A single commit handler per (transaction, collection), registered
//     by the first operation, applies the buffer, violates transactions
//     holding conflicting semantic locks, and releases this
//     transaction's locks.
//   - A single abort handler releases locks and discards buffers
//     (compensation for the open-nested lock acquisitions).
//
// Every open-nested region is one call of stripeSet.section
// (stripeset.go), which states how a collection enters a partition — the
// substitution for the paper's low-level open-nested hardware
// transactions described in DESIGN.md §4.
//
// # Striping
//
// Every collection is a stripeSet (stripeset.go) of partitions, each
// fusing its own guard with its slice of the wrapped structure and of
// the lock tables; a transaction's guard footprint covers only the
// partitions it used, so operations on different partitions of one
// instance run — and commit — in parallel. One code path serves every
// partition count; the constructors that adopt one caller-supplied
// structure (NewTransactionalMap, NewTransactionalSortedMap,
// NewTransactionalQueue) simply have one partition. The three
// collections differ only in how an operation picks its partition:
//
// TransactionalMap hashes the key (NewStripedTransactionalMap;
// DESIGN.md §4.2).
//
// TransactionalSortedMap cannot: range locks are inherently cross-key,
// so hashing keys to stripes would force every iterator and navigation
// query to take every stripe. NewRangeStripedTransactionalSortedMap
// partitions the *key space* into contiguous intervals instead, so
// point operations and range scans confined to one interval stay on one
// guard, and only scans and endpoint walks that genuinely span
// intervals touch several stripes (one section per stripe, in interval
// order; see sortedmap_striped.go and DESIGN.md §4.5).
//
// TransactionalQueue picks a lane by thread
// (NewSegmentedTransactionalQueue): semantic FIFO is preserved per
// lane, and producers/consumers on different lanes commit and run
// handler windows in parallel.
//
// Caveat, matching the paper's single-handler design choice (§5.1
// "Single versus multiple handlers"): collection operations performed
// inside a closed-nested child are merged into the transaction's one
// buffer, so they are rolled back correctly when the whole transaction
// aborts, but a closed-nested child that aborts and retries *after*
// performing collection operations does not unwind those buffered
// operations. Perform collection operations in the transaction body (as
// the paper's benchmarks do), not in partially-rolled-back children.
package core

import (
	"hash/maphash"
	"slices"

	"tcc/internal/collections"
	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// DefaultOpCost is the abstract cycle cost charged per collection
// operation (the open-nested critical section's work), calibrated to be
// comparable with the lock-based baseline's per-operation cost so that
// single-CPU runtimes of the configurations in the paper's figures are
// commensurable.
const DefaultOpCost = 40

// DefaultStripes is the stripe count NewStripedTransactionalMap uses
// when the caller passes stripes <= 0.
const DefaultStripes = 16

// maxStripes bounds the stripe count so a transaction's touched-stripe
// set fits one uint64 bitmask in its local state.
const maxStripes = 64

// stripeSeed hashes keys to stripes; one process-global seed keeps
// StripeOf stable for a key across every map (and across the map and
// the benchmarks that pick pairwise-disjoint stripes).
var stripeSeed = maphash.MakeSeed()

// presence is what a transaction knows about a key's membership in the
// committed map.
type presence uint8

const (
	// presenceUnknown: a blind write (PutUnread/RemoveUnread), which
	// defers the presence question — and hence its size contribution —
	// until Size/IsEmpty resolves it or commit applies it.
	presenceUnknown presence = iota
	presenceAbsent
	presencePresent
)

func presenceOf(present bool) presence {
	if present {
		return presencePresent
	}
	return presenceAbsent
}

// mapWrite is one buffered write in the storeBuffer (Table 3: "map of
// keys to new values, special value for removed keys"), held by value.
type mapWrite[V any] struct {
	val     V
	removed bool
	// committed records whether the key was present in the committed map
	// when this transaction read it under its key lock.
	committed presence
}

// maxRecycledEntries is the largest key-lock set, store buffer or
// range-lock list a mapLocal may have held and still be recycled. Go
// maps never shrink and clear costs O(capacity), so a local that grew
// past this is discarded on release: one huge transaction must neither
// pin its maps on the thread nor tax every later small transaction with
// a sweep of them.
const maxRecycledEntries = 256

// mapLocal is the transaction-local state of Table 3 (and, for sorted
// maps, Table 6): the locks this transaction holds on this instance and
// the write buffer. It is recycled under footprint's rule; releaseLocked
// is the tail of both handlers that returns it to pristine.
type mapLocal[K comparable, V any] struct {
	footprint
	keyLocks    map[K]struct{}
	sizeLocked  bool
	emptyLocked bool
	// rangeLocks lists the range locks held; release moves them, zeroed,
	// to spareRanges, where newRangeLock finds them again.
	rangeLocks  []*rangeLock[K]
	spareRanges []*rangeLock[K]
	storeBuffer map[K]mapWrite[V]
	// sortedKeys is Table 6's sortedStoreBuffer: for sorted maps, the
	// keys of storeBuffer in comparator order, so iterators and
	// navigation queries enumerate local changes ordered instead of
	// scanning the buffer (values and removal markers stay in
	// storeBuffer). A sorted slice, recycled with the local: buffering
	// in ascending order, as bulk loads do, is an append.
	sortedKeys []K
}

// bufferKey records k, which storeBuffer has just gained, in the buffer
// index (no-op for unsorted maps).
func (tm *TransactionalMap[K, V]) bufferKey(l *mapLocal[K, V], k K) {
	if tm.sorted == nil {
		return
	}
	cmp := tm.sorted.cmp
	if n := len(l.sortedKeys); n == 0 || cmp(l.sortedKeys[n-1], k) < 0 {
		l.sortedKeys = append(l.sortedKeys, k)
		return
	}
	i, _ := slices.BinarySearchFunc(l.sortedKeys, k, cmp)
	l.sortedKeys = slices.Insert(l.sortedKeys, i, k)
}

// rangeLock is one range lock a transaction holds: the entry published
// in a stripe's range table, the stripe index that lets releaseLocked
// return it to the table it came from, and the storage its bounds point
// at — so widening an iterator's range or laying a navigation query's
// gap lock boxes no key.
type rangeLock[K comparable] struct {
	semlock.RangeEntry[K]
	si     int
	lo, hi K
}

// setLo bounds the range below at k.
func (r *rangeLock[K]) setLo(k K, excl bool) {
	r.lo = k
	r.Lo, r.LoExcl = &r.lo, excl
}

// setHi bounds the range above at k.
func (r *rangeLock[K]) setHi(k K, excl bool) {
	r.hi = k
	r.Hi, r.HiExcl = &r.hi, excl
}

// sortedExt carries the extra shared state of TransactionalSortedMap
// (Table 6): the sorted views of the wrapped shards and the range-lock
// tables, one of each per interval stripe (see sortedmap_striped.go),
// split by the boundaries slice.
type sortedExt[K comparable, V any] struct {
	// cmp is the comparator shared by every shard (captured at
	// construction, read-only thereafter).
	cmp func(a, b K) int
	// sms[i] is stripe i's committed sorted shard — the same object as
	// stripes[i].m, retyped to its sorted interface.
	sms []collections.SortedMap[K, V]
	// boundaries[i] is the inclusive lower bound of stripe i+1's
	// interval: stripe 0 owns keys below boundaries[0], stripe i owns
	// [boundaries[i-1], boundaries[i]), the last stripe owns the tail.
	// Immutable after construction.
	boundaries []K
	// rangeLockers[i] is stripe i's range-lock table; an entry in table
	// i is only ever checked against keys of stripe i, so nil bounds
	// mean "to this stripe's edge", not the whole key space.
	rangeLockers []*semlock.RangeTable[K]
}

// stripeFor maps k to its interval stripe: the number of boundaries at
// or below k (binary search; boundaries is immutable).
func (x *sortedExt[K, V]) stripeFor(k K) int {
	lo, hi := 0, len(x.boundaries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.cmp(k, x.boundaries[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// mapStripe is one shard of a TransactionalMap: a slice of the
// committed state and of the semantic-lock tables, protected by its entry
// of the stripeSet's guard vector. Every key hashes to exactly one
// stripe, which holds that key's committed mapping and key-lock entry;
// the size and empty
// lock sets are sharded too — a size/empty reader registers in every
// stripe's set, and a committing writer sweeps only the stripes whose
// local size (or local emptiness) its buffer changed, under guards it
// already holds. A reader is therefore still violated by any committing
// insert or remove (the paper's Table 2 size semantics), but writers on
// disjoint keys never touch a shared counter line or a shared lock set.
type mapStripe[K comparable, V any] struct {
	// m holds the stripe's committed state (Table 3: "the underlying
	// Map instance").
	m collections.Map[K, V]
	// key2lockers and sizeLockers are the shared transaction state of
	// Table 3; emptyLockers implements the §5.1 isEmpty refinement.
	key2lockers  *semlock.KeyTable[K]
	sizeLockers  *semlock.OwnerSet
	emptyLockers *semlock.OwnerSet
}

// TransactionalMap wraps any collections.Map and provides concurrent,
// atomically composable access from transactions, using semantic
// concurrency control instead of memory-level dependencies (paper
// §3.1). It offers the same operations as the underlying Map interface
// and can serve as a drop-in replacement. See the package documentation
// for the striped internal layout.
type TransactionalMap[K comparable, V any] struct {
	// stripeSet holds the stripes' guards and footprint machinery;
	// mask == 0 means single-stripe and StripeOf skips hashing entirely.
	stripeSet
	// stripes[i] is the shard guarded by guards[i].
	stripes []*mapStripe[K, V]
	// isEmptyViaSize makes IsEmpty take the size lock instead of the
	// empty-transition lock, reproducing the §5.1 ablation.
	isEmptyViaSize bool
	// eagerWriteCheck switches write operations to pessimistic conflict
	// detection (§5.1 "Alternatives to optimistic concurrency
	// control"): Put/Remove violate conflicting key-lock holders when
	// the operation is first performed instead of waiting until commit.
	// Conflicts surface earlier (less lost work for the writer) at the
	// price of aborting readers that might otherwise have committed
	// before the writer.
	eagerWriteCheck bool
	// name labels this instance in violation reasons, so lost-work
	// profiles attribute conflicts to specific structures (the paper's
	// TAPE-style analysis names District.orderTable etc.).
	name string
	// The violation reasons, built once per name.
	reasonKey, reasonSize, reasonEmpty, reasonRange *stm.Reason
	// sorted is non-nil when this instance is a TransactionalSortedMap.
	sorted *sortedExt[K, V]
}

// newMapStripe builds one stripe around the given committed shard.
func newMapStripe[K comparable, V any](m collections.Map[K, V]) *mapStripe[K, V] {
	return &mapStripe[K, V]{
		m:            m,
		key2lockers:  semlock.NewKeyTable[K](),
		sizeLockers:  semlock.NewOwnerSet(),
		emptyLockers: semlock.NewOwnerSet(),
	}
}

// NewTransactionalMap wraps m. The wrapper assumes exclusive ownership:
// all subsequent access must go through the wrapper. Because it adopts
// one existing structure it is single-stripe; use
// NewStripedTransactionalMap (which builds its own shards) when
// disjoint-key operations on one hot map need to scale.
func NewTransactionalMap[K comparable, V any](m collections.Map[K, V]) *TransactionalMap[K, V] {
	return NewStripedTransactionalMap(func() collections.Map[K, V] { return m }, 1)
}

// NewStripedTransactionalMap creates a map sharded into the given
// number of stripes (rounded up to a power of two, clamped to
// [1, 64]; stripes <= 0 selects DefaultStripes). newShard is called
// once per stripe to build that stripe's committed structure, so the
// shards start empty and the wrapper owns them outright.
func NewStripedTransactionalMap[K comparable, V any](newShard func() collections.Map[K, V], stripes int) *TransactionalMap[K, V] {
	n := normalizeStripes(stripes)
	tm := &TransactionalMap[K, V]{
		stripeSet: newStripeSet(n),
		stripes:   make([]*mapStripe[K, V], n),
	}
	for i := range tm.stripes {
		tm.stripes[i] = newMapStripe(newShard())
	}
	tm.SetName("map")
	return tm
}

// SetName labels this instance in violation reasons so conflict
// profiles (harness.FormatViolationProfile) attribute lost work to
// specific structures. Striped instances label each stripe's guard
// "name.stripe[i]" — or "name.range[i]" for an interval-striped sorted
// map — so guard-wait heatmaps show the stripes working.
func (tm *TransactionalMap[K, V]) SetName(name string) {
	tm.name = name
	kind := "stripe"
	if tm.sorted != nil {
		kind = "range"
	}
	tm.setName(name, kind)
	tm.reasonKey = stm.NewReason(name + ": key conflict")
	tm.reasonSize = stm.NewReason(name + ": size conflict")
	tm.reasonEmpty = stm.NewReason(name + ": emptiness conflict")
	tm.reasonRange = stm.NewReason(name + ": range conflict")
}

// Name returns the label set by SetName.
func (tm *TransactionalMap[K, V]) Name() string { return tm.name }

// Guard returns stripe 0's commit guard — the instance guard of a
// single-stripe map. Code composing its own guarded handlers with a
// striped map should use StripeGuard(k) for the key it works with.
func (tm *TransactionalMap[K, V]) Guard() *stm.Guard { return tm.guards[0] }

// Stripes returns the number of stripes (1 unless built by
// NewStripedTransactionalMap).
func (tm *TransactionalMap[K, V]) Stripes() int { return len(tm.stripes) }

// StripeOf returns the index of k's stripe: its hash stripe for a
// plain map, its interval stripe for a range-striped sorted map.
func (tm *TransactionalMap[K, V]) StripeOf(k K) int {
	if tm.mask == 0 {
		return 0
	}
	if tm.sorted != nil {
		return tm.sorted.stripeFor(k)
	}
	return int(maphash.Comparable(stripeSeed, k) & tm.mask)
}

// StripeGuard returns the commit guard of k's stripe, for code that
// composes its own guarded handlers with operations on k.
func (tm *TransactionalMap[K, V]) StripeGuard(k K) *stm.Guard {
	return tm.guards[tm.StripeOf(k)]
}

// newRangeLock returns an unbounded range lock owned by l.h, published
// in stripe si's range-lock table and recorded in the local so
// releaseLocked can return it to that table; the caller then narrows its
// bounds in place. Caller holds stripe si's guard.
func (tm *TransactionalMap[K, V]) newRangeLock(l *mapLocal[K, V], si int) *rangeLock[K] {
	var r *rangeLock[K]
	if n := len(l.spareRanges) - 1; n >= 0 {
		r, l.spareRanges = l.spareRanges[n], l.spareRanges[:n]
	} else {
		r = new(rangeLock[K])
	}
	r.si, r.Owner = si, l.h
	l.rangeLocks = append(l.rangeLocks, r)
	tm.sorted.rangeLockers[si].Add(&r.RangeEntry)
	return r
}

// SetIsEmptyViaSize toggles the §5.1 ablation: when true, IsEmpty takes
// the size lock (conflicting with any size change) instead of the
// dedicated empty-transition lock.
func (tm *TransactionalMap[K, V]) SetIsEmptyViaSize(v bool) { tm.isEmptyViaSize = v }

// SetEagerWriteCheck toggles pessimistic write-conflict detection (the
// §5.1 alternative): writes abort conflicting readers at operation time
// rather than at commit.
func (tm *TransactionalMap[K, V]) SetEagerWriteCheck(v bool) { tm.eagerWriteCheck = v }

// local returns tx's local state for this instance (see attach).
func (tm *TransactionalMap[K, V]) local(tx *stm.Tx) *mapLocal[K, V] {
	return attach(tx, tm, tm.newLocal)
}

// newLocal builds th's mapLocal for this instance, with the handler pair
// the first touch of every attempt registers.
func (tm *TransactionalMap[K, V]) newLocal(th *stm.Thread) *mapLocal[K, V] {
	l := &mapLocal[K, V]{
		keyLocks:    make(map[K]struct{}),
		storeBuffer: make(map[K]mapWrite[V]),
	}
	l.onCommit = func() {
		n := len(l.storeBuffer)
		tm.applyLocked(l)
		th.DeferTick(DefaultOpCost * uint64(1+n))
	}
	l.onAbort = func() {
		tm.releaseLocked(l)
		th.DeferTick(DefaultOpCost)
	}
	return l
}

// touchAll puts every stripe into the footprint, for the whole-map scans
// that visit the stripes one guard at a time (Size, IsEmpty, an exhausted
// iterator).
func (tm *TransactionalMap[K, V]) touchAll(tx *stm.Tx, l *mapLocal[K, V]) {
	for si := range tm.stripes {
		tm.touch(tx, &l.footprint, si)
	}
}

// lockKeyLocked takes (idempotently) the key lock for k on behalf of the
// attempt l is attached to. Caller holds k's stripe guard.
func (tm *TransactionalMap[K, V]) lockKeyLocked(l *mapLocal[K, V], k K) {
	if _, ok := l.keyLocks[k]; ok {
		return
	}
	tm.stripes[tm.StripeOf(k)].key2lockers.Lock(k, l.h)
	l.keyLocks[k] = struct{}{}
}

// Get returns the value mapped to k as seen by tx: the transaction's
// own buffered write if any, otherwise the committed value read under a
// key lock inside an open-nested region (Table 2: get takes a "key lock
// on argument").
//
// Inside AtomicRead, Get is the one core operation answered on the
// snapshot path (DESIGN.md §4.4): the committed mapping, read under k's
// stripe guard alone, with no key lock, no handler and no open-nested
// child. Each such Get is atomic, but a sequence of them is not one cut
// of the map — a commit may land between two. Every other operation
// touches its stripes, which drops the transaction to the retry path.
func (tm *TransactionalMap[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	if tx.IsSnapshot() {
		var v V
		var ok bool
		si := tm.StripeOf(k)
		tm.held(si, si+1, func() { v, ok = tm.stripes[si].m.Get(k) })
		tx.Thread().Clock.Tick(DefaultOpCost)
		return v, ok
	}
	l := tm.local(tx)
	if w, ok := l.storeBuffer[k]; ok {
		if w.removed {
			var zero V
			return zero, false
		}
		return w.val, true
	}
	return tm.readCommitted(tx, l, k, false)
}

// ContainsKey reports whether k is mapped, taking the same key lock as
// Get.
func (tm *TransactionalMap[K, V]) ContainsKey(tx *stm.Tx, k K) bool {
	_, ok := tm.Get(tx, k)
	return ok
}

// Put buffers a mapping of k to v and returns the previous value.
// Because it returns the old value it logically includes a read, so it
// takes the key lock (Table 2); the actual update is deferred to the
// commit handler. Use PutUnread when the old value is not needed — it
// creates no read dependency (§5.1 "Extensions to java.util.Map").
func (tm *TransactionalMap[K, V]) Put(tx *stm.Tx, k K, v V) (V, bool) {
	l := tm.local(tx)
	if w, ok := l.storeBuffer[k]; ok {
		var old V
		had := !w.removed
		if had {
			old = w.val
		}
		w.val, w.removed = v, false
		l.storeBuffer[k] = w
		return old, had
	}
	old, had := tm.readCommitted(tx, l, k, true)
	l.storeBuffer[k] = mapWrite[V]{val: v, committed: presenceOf(had)}
	tm.bufferKey(l, k)
	return old, had
}

// PutUnread buffers a mapping of k to v without reading or locking the
// old value: two transactions blindly writing the same key commute and
// may commit in either order (the paper's "LastModified" example). The
// key's stripe still joins the guard footprint — the commit handler
// will apply the write there.
func (tm *TransactionalMap[K, V]) PutUnread(tx *stm.Tx, k K, v V) {
	l := tm.local(tx)
	if w, ok := l.storeBuffer[k]; ok {
		w.val, w.removed = v, false
		l.storeBuffer[k] = w
		return
	}
	tm.touch(tx, &l.footprint, tm.StripeOf(k))
	l.storeBuffer[k] = mapWrite[V]{val: v}
	tm.bufferKey(l, k)
	tx.Thread().Clock.Tick(DefaultOpCost / 4)
}

// Remove buffers a removal of k and returns the removed value, taking a
// key lock for the read it implies.
func (tm *TransactionalMap[K, V]) Remove(tx *stm.Tx, k K) (V, bool) {
	l := tm.local(tx)
	var zero V
	if w, ok := l.storeBuffer[k]; ok {
		var old V
		had := !w.removed
		if had {
			old = w.val
		}
		w.val, w.removed = zero, true
		l.storeBuffer[k] = w
		return old, had
	}
	old, had := tm.readCommitted(tx, l, k, true)
	l.storeBuffer[k] = mapWrite[V]{removed: true, committed: presenceOf(had)}
	tm.bufferKey(l, k)
	return old, had
}

// RemoveUnread buffers a removal of k without reading the old value.
func (tm *TransactionalMap[K, V]) RemoveUnread(tx *stm.Tx, k K) {
	l := tm.local(tx)
	var zero V
	if w, ok := l.storeBuffer[k]; ok {
		w.val, w.removed = zero, true
		l.storeBuffer[k] = w
		return
	}
	tm.touch(tx, &l.footprint, tm.StripeOf(k))
	l.storeBuffer[k] = mapWrite[V]{removed: true}
	tm.bufferKey(l, k)
	tx.Thread().Clock.Tick(DefaultOpCost / 4)
}

// PutAll buffers every mapping of src (a derivative operation built on
// Put, as in the paper's primitive/derivative categorization).
func (tm *TransactionalMap[K, V]) PutAll(tx *stm.Tx, src map[K]V) {
	for k, v := range src {
		tm.Put(tx, k, v)
	}
}

// readCommitted reads k's committed mapping under its key lock. For
// write operations (forWrite), the eager-write-check ablation also
// performs the key-conflict detection immediately.
func (tm *TransactionalMap[K, V]) readCommitted(tx *stm.Tx, l *mapLocal[K, V], k K, forWrite bool) (V, bool) {
	si := tm.StripeOf(k)
	st := tm.stripes[si]
	var v V
	var present bool
	tm.section(tx, &l.footprint, si, si+1, DefaultOpCost, func() {
		tm.lockKeyLocked(l, k)
		if forWrite && tm.eagerWriteCheck {
			tm.noteViolations(si, st.key2lockers.Violate(k, l.h, tm.reasonKey))
		}
		v, present = st.m.Get(k)
	})
	return v, present
}

// resolveBlindStripeLocked pins down the committed presence of every
// blindly written key that hashes to stripe si (taking its key lock) so
// the buffer's net size effect is well defined. Caller holds stripe
// si's guard.
func (tm *TransactionalMap[K, V]) resolveBlindStripeLocked(st *mapStripe[K, V], si int, l *mapLocal[K, V]) {
	for k, w := range l.storeBuffer {
		if w.committed == presenceUnknown && tm.StripeOf(k) == si {
			tm.lockKeyLocked(l, k)
			w.committed = presenceOf(st.m.ContainsKey(k))
			l.storeBuffer[k] = w
		}
	}
}

// deltaLocked is the Table 3 delta: the buffer's net change to the
// map's size. The caller has resolved blind writes; only this
// transaction's local state is read.
func (tm *TransactionalMap[K, V]) deltaLocked(l *mapLocal[K, V]) int {
	d := 0
	for _, w := range l.storeBuffer {
		if w.removed {
			if w.committed == presencePresent {
				d--
			}
		} else if w.committed == presenceAbsent {
			d++
		}
	}
	return d
}

// Size returns the number of mappings as seen by tx: the committed size
// plus the buffer's delta. It takes the size lock on every stripe, so
// any committing transaction that changes any stripe's size aborts this
// one (Table 2's "size conflicts with any insert or remove").
//
// The stripes are scanned one at a time — hold the stripe guard, register
// in its size-lock table, read its committed size, release — rather than
// under all guards at once. The sum is still serializable:
// a writer committing between two of the scan's steps sweeps the
// size-lock tables of every stripe it changes, and this transaction is
// already registered in the stripes it has passed, so any commit that
// could have torn the sum also violates this transaction, which then
// cannot commit (the same opacity-by-violation argument as the paper's
// open-nested reads).
func (tm *TransactionalMap[K, V]) Size(tx *stm.Tx) int {
	return tm.lockedSize(tx, false)
}

// lockedSize is the whole-map scan behind Size and IsEmpty: the
// committed sizes of all stripes plus the buffer's delta, read under the
// size lock or — for IsEmpty's question (empty) — the empty-transition
// lock of every stripe.
func (tm *TransactionalMap[K, V]) lockedSize(tx *stm.Tx, empty bool) int {
	l := tm.local(tx)
	tm.touchAll(tx, l)
	n := 0
	open(tx, DefaultOpCost, func() {
		for si, st := range tm.stripes {
			tm.held(si, si+1, func() {
				// Recorded with the first stripe's lock: a scan cut short
				// (Size runs user code that may panic) releases them all.
				if empty {
					st.emptyLockers.Lock(l.h)
					l.emptyLocked = true
				} else {
					st.sizeLockers.Lock(l.h)
					l.sizeLocked = true
				}
				tm.resolveBlindStripeLocked(st, si, l)
				n += st.m.Size()
			})
		}
		n += tm.deltaLocked(l)
	})
	return n
}

// IsEmpty reports whether the map is empty. As the paper's §5.1
// discussion prescribes, it is a primitive operation with its own
// empty-transition lock: it conflicts only with commits that change
// emptiness, not with every size change, so two transactions running
// "if !m.IsEmpty() { m.Put(...) }" on a non-empty map commute. On a
// striped map the empty lock is registered per stripe and a committing
// writer sweeps a stripe's set when that stripe's local emptiness
// flips — conservative (a stripe can flip while the whole map stays
// non-empty) but never missing a global transition, since a global flip
// requires some stripe to flip.
func (tm *TransactionalMap[K, V]) IsEmpty(tx *stm.Tx) bool {
	if tm.isEmptyViaSize {
		return tm.Size(tx) == 0
	}
	return tm.lockedSize(tx, true) == 0
}

// applyLocked is the commit handler's body: apply the buffer to the
// underlying stripes, violate conflicting semantic lock holders (Table
// 2's "Write Conflict" column), and release this transaction's locks.
// The commit protocol holds every touched stripe's guard; the buffer's
// keys all hash to touched stripes (touch precedes buffering).
func (tm *TransactionalMap[K, V]) applyLocked(l *mapLocal[K, V]) {
	h := l.h
	var oldSizes [maxStripes]int
	if len(l.storeBuffer) > 0 {
		for si, st := range tm.stripes {
			if l.touched&(uint64(1)<<uint(si)) != 0 {
				oldSizes[si] = st.m.Size()
			}
		}
	}
	for k, w := range l.storeBuffer {
		si := tm.StripeOf(k)
		st := tm.stripes[si]
		// Key conflict based on argument: abort every other reader (or
		// locking writer) of this key.
		n := st.key2lockers.Violate(k, h, tm.reasonKey)
		var membershipChanged bool
		if w.removed {
			_, had := st.m.Remove(k)
			membershipChanged = had
		} else {
			_, had := st.m.Put(k, w.val)
			membershipChanged = !had
		}
		if tm.sorted != nil && membershipChanged {
			// Range conflict: the key entered or left an iterated range —
			// or, for a range reaching the end of the key space, changed
			// an observed endpoint (Table 5's first/last conflicts). Only
			// k's own stripe's table can hold entries covering k.
			n += tm.sorted.rangeLockers[si].ViolateCovering(k, h, tm.reasonRange)
		}
		tm.noteViolations(si, n)
	}
	if len(l.storeBuffer) > 0 {
		// Size and empty sweeps are per stripe: a size/empty reader is
		// registered in every stripe's set, so sweeping just the stripes
		// whose local size changed still violates every reader, while
		// disjoint-key writers never sweep (or resize) a shared set.
		for si, st := range tm.stripes {
			if l.touched&(uint64(1)<<uint(si)) == 0 {
				continue
			}
			n := 0
			newSize := st.m.Size()
			if newSize != oldSizes[si] {
				n += st.sizeLockers.ViolateOthers(h, tm.reasonSize)
			}
			if (oldSizes[si] == 0) != (newSize == 0) {
				n += st.emptyLockers.ViolateOthers(h, tm.reasonEmpty)
			}
			tm.noteViolations(si, n)
		}
	}
	tm.releaseLocked(l)
}

// releaseLocked releases every semantic lock held by this transaction
// on this instance and returns its local state to pristine for the
// thread's next attempt; it is both the tail of the commit handler and
// the whole of the abort handler. The protocol holds every touched
// stripe's guard; all of this transaction's locks live on touched
// stripes (size/empty locks imply every stripe was touched).
func (tm *TransactionalMap[K, V]) releaseLocked(l *mapLocal[K, V]) {
	h := l.h
	for k := range l.keyLocks {
		tm.stripes[tm.StripeOf(k)].key2lockers.Unlock(k, h)
	}
	if l.sizeLocked {
		for _, st := range tm.stripes {
			st.sizeLockers.Unlock(h)
		}
	}
	if l.emptyLocked {
		for _, st := range tm.stripes {
			st.emptyLockers.Unlock(h)
		}
	}
	for _, r := range l.rangeLocks {
		tm.sorted.rangeLockers[r.si].Remove(&r.RangeEntry)
	}
	l.h = nil
	if max(len(l.keyLocks), len(l.storeBuffer), len(l.rangeLocks)) > maxRecycledEntries {
		// Oversized (see maxRecycledEntries): let go of the containers
		// now and stay touched, so local() builds a fresh one.
		l.keyLocks, l.storeBuffer, l.sortedKeys = nil, nil, nil
		l.rangeLocks, l.spareRanges = nil, nil
		return
	}
	clear(l.keyLocks)
	clear(l.storeBuffer)
	clear(l.sortedKeys)
	l.sortedKeys = l.sortedKeys[:0]
	for i, r := range l.rangeLocks {
		// A spare entry must not pin the attempt's handle or keys.
		*r = rangeLock[K]{}
		l.spareRanges = append(l.spareRanges, r)
		l.rangeLocks[i] = nil
	}
	l.rangeLocks = l.rangeLocks[:0]
	l.sizeLocked, l.emptyLocked = false, false
	l.touched = 0
}
