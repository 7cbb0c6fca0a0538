package core

// Snapshot-mode reads (DESIGN.md §4.4). A transaction on the MVCC-lite
// snapshot path (an stm.Thread.AtomicRead attempt) cannot use the
// collection protocol of Tables 2/3: it takes no semantic locks,
// registers no handlers, and never aborts — so there is no commit
// window in which a conflicting writer could violate it, and nothing to
// compensate. Instead every read-only operation is answered directly
// from the committed structure under the stripe guard(s) it needs:
//
//   - Get/ContainsKey hold one stripe guard and read the committed
//     shard — no key lock, no open-nested child.
//   - Size/IsEmpty/Iterator hold every stripe guard at once, so a
//     whole-map answer can never observe half of a multi-stripe commit.
//
// Consistency caveat: unlike stm.Var reads — which the snapshot path
// serializes at one read version via the per-var history chain — the
// committed state of a collection is unversioned, so each collection
// operation is linearizable on its own but a *sequence* of collection
// operations inside one snapshot transaction may observe different
// commits. A single Size, a single Get, or one Iterator walk is an
// atomic view; comparing two of them is not. Read-mostly workloads that
// need a multi-operation collection snapshot should stay on the retry
// path (plain Atomic), which buys full serializability with semantic
// locks. This is the same trade the paper's §5.1 "alternatives"
// discussion prices: the snapshot path removes all read-side aborts and
// lock-table traffic in exchange for per-operation (rather than
// per-transaction) atomicity on collections.

// Each answer below is one guard hold (stripeSet.held); the caller charges
// the operation once the guards are free.

// snapshotGet answers Get for a snapshot transaction: the committed
// mapping, read under k's stripe guard only.
func (tm *TransactionalMap[K, V]) snapshotGet(k K) (v V, ok bool) {
	si := tm.StripeOf(k)
	tm.held(si, si+1, func() { v, ok = tm.stripes[si].m.Get(k) })
	return v, ok
}

// snapshotSize answers Size for a snapshot transaction: the committed
// size summed with every stripe guard held, so a multi-stripe commit is
// either fully counted or not at all.
func (tm *TransactionalMap[K, V]) snapshotSize() (n int) {
	tm.held(0, len(tm.stripes), func() {
		for _, st := range tm.stripes {
			n += st.m.Size()
		}
	})
	return n
}

// snapshotIterator answers Iterator for a snapshot transaction: the
// committed entries are frozen at creation under all stripe guards, and
// enumeration walks the frozen slice with no further locking. The walk
// is one atomic view of the map (see the caveat above for sequences).
func (tm *TransactionalMap[K, V]) snapshotIterator() *MapIterator[K, V] {
	it := &MapIterator[K, V]{frozen: true}
	tm.held(0, len(tm.stripes), func() {
		for _, st := range tm.stripes {
			for _, k := range st.m.Keys() {
				if v, ok := st.m.Get(k); ok {
					it.entries = append(it.entries, mapEntry[K, V]{Key: k, Val: v})
				}
			}
		}
	})
	return it
}
