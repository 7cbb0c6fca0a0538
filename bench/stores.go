package main

// The four transaction bodies are written once, against the small store
// interfaces below, and bound to one layer at a time: internal/core (the
// paper's semantic wrappers, the line of record), internal/stmcol (every
// field a Var — the paper's "Atomos HashMap/TreeMap" line), the raw
// internal/collections structures under one coarse lock held for the
// whole transaction (the "Java" line), or nothing at all (the no-op
// store that measures the driver itself).

import (
	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/harness"
	"tcc/internal/stm"
	"tcc/internal/stmcol"
)

// layer names the package a workload's stores are bound to.
type layer int

const (
	// layerCore is the workload's main line: internal/core with the
	// constructors the workload table names.
	layerCore layer = iota
	// layerCoreAlt swaps the striping: 1-stripe constructors on the
	// three striped workloads, striped constructors on compound-hot.
	layerCoreAlt
	// layerStmcol binds internal/stmcol.
	layerStmcol
	// layerLock binds internal/collections under one coarse lock.
	layerLock
	// layerNoop binds stores that do nothing.
	layerNoop
)

type mapStore interface {
	Get(tx *stm.Tx, k int) (int, bool)
	Put(tx *stm.Tx, k, v int) (int, bool)
	Remove(tx *stm.Tx, k int) (int, bool)
	Size(tx *stm.Tx) int
}

type sortedStore interface {
	mapStore
	CeilingKey(tx *stm.Tx, k int) (int, bool)
	FirstKey(tx *stm.Tx) (int, bool)
	LastKey(tx *stm.Tx) (int, bool)
	// Scan visits lo <= key < hi ascending until fn returns false.
	Scan(tx *stm.Tx, lo, hi int, fn func(k, v int) bool)
}

type queueStore interface {
	Put(tx *stm.Tx, v int)
	Poll(tx *stm.Tx) (int, bool)
	Peek(tx *stm.Tx) (int, bool)
}

type counterStore interface {
	Add(tx *stm.Tx, d int64)
	Get(tx *stm.Tx) int64
}

// executor runs one transaction body on a layer.
type executor interface {
	// run executes fn as one transaction of worker w.
	run(w *worker, readOnly bool, fn func(tx *stm.Tx) error) error
	// setup executes fn outside any measured pass (population, checks).
	setup(fn func(tx *stm.Tx) error) error
	// abort ends the running transaction with err, undoing it.
	abort(tx *stm.Tx, err error) error
}

// stmExec runs bodies as stm transactions; both stm-backed layers use it.
type stmExec struct{ th *stm.Thread }

func newStmExec() *stmExec { return &stmExec{th: stm.NewThread(&stm.RealClock{}, 1)} }

func (e *stmExec) run(w *worker, readOnly bool, fn func(tx *stm.Tx) error) error {
	if readOnly {
		return w.Thread.AtomicRead(fn)
	}
	return w.Thread.Atomic(fn)
}

func (e *stmExec) setup(fn func(tx *stm.Tx) error) error { return e.th.Atomic(fn) }

func (e *stmExec) abort(tx *stm.Tx, err error) error {
	tx.Abort(err)
	return err
}

// lockExec holds one platform lock for the whole body. The raw stores
// count their operations in ops (safe: they only run under the lock) and
// the executor charges them to the virtual clock before releasing, so the
// simulator sees the same per-operation cost the core wrappers charge.
// A body must call abort before its first write: there is no rollback.
type lockExec struct {
	lock harness.Lock
	ops  int
}

func (e *lockExec) run(w *worker, _ bool, fn func(tx *stm.Tx) error) error {
	e.lock.Lock(w.Worker)
	e.ops = 0
	err := fn(nil)
	w.Compute(uint64(e.ops) * core.DefaultOpCost)
	e.lock.Unlock(w.Worker)
	return err
}

func (e *lockExec) setup(fn func(tx *stm.Tx) error) error { return fn(nil) }

func (e *lockExec) abort(_ *stm.Tx, err error) error { return err }

// noopExec calls the body and nothing else.
type noopExec struct{}

func (noopExec) run(_ *worker, _ bool, fn func(tx *stm.Tx) error) error { return fn(nil) }
func (noopExec) setup(fn func(tx *stm.Tx) error) error                  { return fn(nil) }
func (noopExec) abort(_ *stm.Tx, err error) error                       { return err }

// newExecutor picks the executor of a layer on a platform.
func newExecutor(lay layer, pl harness.Platform) executor {
	switch lay {
	case layerLock:
		return &lockExec{lock: pl.NewLock()}
	case layerNoop:
		return noopExec{}
	}
	return newStmExec()
}

// ---- internal/core ----
// TransactionalMap, TransactionalQueue and Counter satisfy the store
// interfaces as they are; the sorted map needs Scan spelled as the
// SubMap view the workload table names.

type coreSorted struct {
	*core.TransactionalSortedMap[int, int]
}

func (s coreSorted) Scan(tx *stm.Tx, lo, hi int, fn func(k, v int) bool) {
	s.SubMap(lo, hi).ForEach(tx, fn)
}

func newHashShard() collections.Map[int, int]       { return collections.NewHashMap[int, int]() }
func newTreeShard() collections.SortedMap[int, int] { return collections.NewTreeMap[int, int]() }
func newQueueLane() collections.Queue[int]          { return collections.NewLinkedQueue[int]() }

func coreMap(stripes int) mapStore {
	if stripes == 1 {
		return core.NewTransactionalMap[int, int](newHashShard())
	}
	return core.NewStripedTransactionalMap[int, int](newHashShard, stripes)
}

// coreSortedMap splits [0, keys) into equal intervals.
func coreSortedMap(stripes, keys int) sortedStore {
	if stripes == 1 {
		return coreSorted{core.NewTransactionalSortedMap[int, int](newTreeShard())}
	}
	bounds := make([]int, 0, stripes-1)
	for i := 1; i < stripes; i++ {
		bounds = append(bounds, i*keys/stripes)
	}
	return coreSorted{core.NewRangeStripedTransactionalSortedMap[int, int](newTreeShard, bounds)}
}

func coreQueue(lanes int) queueStore {
	if lanes == 1 {
		return core.NewTransactionalQueue[int](newQueueLane())
	}
	return core.NewSegmentedTransactionalQueue[int](newQueueLane, lanes)
}

// ---- internal/stmcol ----

type stmSorted struct{ *stmcol.TreeMap[int, int] }

func (s stmSorted) Scan(tx *stm.Tx, lo, hi int, fn func(k, v int) bool) {
	s.AscendRange(tx, &lo, &hi, fn)
}

type stmQueue struct{ q *stmcol.Queue[int] }

func (s stmQueue) Put(tx *stm.Tx, v int)       { s.q.Enqueue(tx, v) }
func (s stmQueue) Poll(tx *stm.Tx) (int, bool) { return s.q.Dequeue(tx) }
func (s stmQueue) Peek(tx *stm.Tx) (int, bool) { return s.q.Peek(tx) }

type stmCounter struct{ v *stm.Var[int64] }

func (c stmCounter) Add(tx *stm.Tx, d int64) { c.v.Set(tx, c.v.Get(tx)+d) }
func (c stmCounter) Get(tx *stm.Tx) int64    { return c.v.Get(tx) }

// ---- internal/collections under the coarse lock ----

type rawMap struct {
	m  collections.Map[int, int]
	ex *lockExec
}

func (r rawMap) Get(_ *stm.Tx, k int) (int, bool)    { r.ex.ops++; return r.m.Get(k) }
func (r rawMap) Put(_ *stm.Tx, k, v int) (int, bool) { r.ex.ops++; return r.m.Put(k, v) }
func (r rawMap) Remove(_ *stm.Tx, k int) (int, bool) { r.ex.ops++; return r.m.Remove(k) }
func (r rawMap) Size(_ *stm.Tx) int                  { r.ex.ops++; return r.m.Size() }

type rawSorted struct {
	rawMap
	sm collections.SortedMap[int, int]
}

func newRawSorted(ex *lockExec) rawSorted {
	sm := newTreeShard()
	return rawSorted{rawMap{sm, ex}, sm}
}

func (r rawSorted) CeilingKey(_ *stm.Tx, k int) (int, bool) { r.ex.ops++; return r.sm.CeilingKey(k) }
func (r rawSorted) FirstKey(_ *stm.Tx) (int, bool)          { r.ex.ops++; return r.sm.FirstKey() }
func (r rawSorted) LastKey(_ *stm.Tx) (int, bool)           { r.ex.ops++; return r.sm.LastKey() }
func (r rawSorted) Scan(_ *stm.Tx, lo, hi int, fn func(k, v int) bool) {
	r.ex.ops++
	r.sm.AscendRange(&lo, &hi, fn)
}

type rawQueue struct {
	q  collections.Queue[int]
	ex *lockExec
}

func (r rawQueue) Put(_ *stm.Tx, v int)       { r.ex.ops++; r.q.Enqueue(v) }
func (r rawQueue) Poll(_ *stm.Tx) (int, bool) { r.ex.ops++; return r.q.Dequeue() }
func (r rawQueue) Peek(_ *stm.Tx) (int, bool) { r.ex.ops++; return r.q.Peek() }

type rawCounter struct{ v *int64 }

func (c rawCounter) Add(_ *stm.Tx, d int64) { *c.v += d }
func (c rawCounter) Get(_ *stm.Tx) int64    { return *c.v }

// ---- no-op ----

// noopMap is the map and the sorted map that do nothing; with noopQueue
// and noopCounter a pass over them measures the driver alone.
type noopMap struct{}

func (noopMap) Get(*stm.Tx, int) (int, bool)                { return 0, false }
func (noopMap) Put(*stm.Tx, int, int) (int, bool)           { return 0, false }
func (noopMap) Remove(*stm.Tx, int) (int, bool)             { return 0, false }
func (noopMap) Size(*stm.Tx) int                            { return 0 }
func (noopMap) CeilingKey(*stm.Tx, int) (int, bool)         { return 0, false }
func (noopMap) FirstKey(*stm.Tx) (int, bool)                { return 0, false }
func (noopMap) LastKey(*stm.Tx) (int, bool)                 { return 0, false }
func (noopMap) Scan(*stm.Tx, int, int, func(k, v int) bool) {}

type noopQueue struct{}

func (noopQueue) Put(*stm.Tx, int)         {}
func (noopQueue) Poll(*stm.Tx) (int, bool) { return 0, false }
func (noopQueue) Peek(*stm.Tx) (int, bool) { return 0, false }

type noopCounter struct{}

func (noopCounter) Add(*stm.Tx, int64) {}
func (noopCounter) Get(*stm.Tx) int64  { return 0 }

// stores is what newStores hands a workload: one of each kind, all on
// the same layer, sharing one executor.
type stores struct {
	ex      executor
	m       mapStore
	sorted  sortedStore
	queue   queueStore
	counter counterStore
}

// shape gives the stripe, range-stripe and lane counts a workload's
// core stores are built with, and the key space [0, sortedKeys) its range
// stripes divide.
type shape struct{ stripes, ranges, lanes, sortedKeys int }

// newStores builds one store of each kind on the given layer. main is
// the workload's own striping; layerCoreAlt flips between it and the
// 1-stripe constructors.
func newStores(lay layer, pl harness.Platform, main shape) stores {
	ex := newExecutor(lay, pl)
	switch lay {
	case layerCore, layerCoreAlt:
		sh := main
		if lay == layerCoreAlt {
			if main.stripes == 1 && main.ranges == 1 && main.lanes == 1 {
				sh.stripes, sh.ranges, sh.lanes = 16, 8, 4
			} else {
				sh.stripes, sh.ranges, sh.lanes = 1, 1, 1
			}
		}
		return stores{ex, coreMap(sh.stripes), coreSortedMap(sh.ranges, sh.sortedKeys), coreQueue(sh.lanes), core.NewCounter(0)}
	case layerStmcol:
		return stores{ex, stmcol.NewHashMap[int, int](), stmSorted{stmcol.NewTreeMap[int, int]()},
			stmQueue{stmcol.NewQueue[int]()}, stmCounter{stm.NewVar[int64](0)}}
	case layerLock:
		lx := ex.(*lockExec)
		return stores{ex, rawMap{newHashShard(), lx}, newRawSorted(lx), rawQueue{newQueueLane(), lx}, rawCounter{new(int64)}}
	}
	return stores{ex, noopMap{}, noopMap{}, noopQueue{}, noopCounter{}}
}
