package core

import (
	"errors"
	"fmt"
	"testing"

	"tcc/internal/semlock"
	"tcc/internal/stm"
)

// Every attempt on a thread runs under the thread's one stm.Handle, so a
// lock-table entry that outlived its attempt would be taken for the next
// attempt's own. The invariant that makes the recycling sound: once
// Atomic or AtomicRead returns — however it returns — no table of a
// collection names the thread's handle; and once an attempt has rolled
// back, none names it before the retry begins.

// handleEndings are the ways a transaction leaves Atomic or AtomicRead.
var handleEndings = []string{
	"commit", "error return", "violated then retry", "tx.Abort",
	"body panic", "commit handler panic", "abort handler panic",
}

// handleFixture is one of each collection, with every kind of semantic
// lock reachable: key, size, empty and range locks on the maps (the
// sorted map's FirstKey/LastKey hold its endpoint locks as range
// entries), empty locks on every queue lane, and a counter contribution.
type handleFixture struct {
	tm    *TransactionalMap[int, int]
	sm    *TransactionalSortedMap[int, int]
	q     *TransactionalQueue[int]
	c     *Counter
	guard *stm.Guard
}

const handleKeys = 64

func newHandleFixture(stripes, lanes int) *handleFixture {
	var bounds []int
	for s := 1; s < stripes; s++ {
		bounds = append(bounds, s*handleKeys/stripes)
	}
	return &handleFixture{
		tm:    newStripedIntMap(stripes),
		sm:    NewRangeStripedTransactionalSortedMap(newIntTree, bounds),
		q:     newSegmentedQueue(lanes),
		c:     NewCounter(0),
		guard: stm.NewGuard(),
	}
}

// ops reaches every lock kind: the queue is empty when the body starts,
// so the Poll takes every lane's empty lock before the Put.
func (f *handleFixture) ops(tx *stm.Tx, i int) {
	f.tm.Get(tx, i%handleKeys)
	f.tm.Put(tx, (i+1)%handleKeys, i)
	f.tm.Size(tx)
	f.tm.IsEmpty(tx)
	f.sm.Get(tx, i%handleKeys)
	f.sm.FirstKey(tx)
	f.sm.LastKey(tx)
	f.sm.CeilingKey(tx, (i*7)%handleKeys)
	f.sm.SubMap(8, 24).ForEach(tx, func(int, int) bool { return true })
	f.sm.Put(tx, (i*13)%handleKeys, i)
	f.q.Poll(tx)
	f.q.Put(tx, i)
	f.c.Add(tx, 1)
}

// drainQueue empties the queue, so the next ops finds it empty again.
func (f *handleFixture) drainQueue(t *testing.T, th *stm.Thread) {
	t.Helper()
	atomically(t, th, func(tx *stm.Tx) {
		for _, ok := f.q.Poll(tx); ok; _, ok = f.q.Poll(tx) {
		}
	})
}

// assertUnnamed fails if any table of f names h — or holds anything at
// all: only one thread runs, so whatever is left is h's.
func (f *handleFixture) assertUnnamed(t *testing.T, h semlock.Owner, when string) {
	t.Helper()
	for _, tm := range []*TransactionalMap[int, int]{f.tm, &f.sm.TransactionalMap} {
		tm.lockSpan(0, len(tm.stripes))
		for k := 0; k < handleKeys; k++ {
			if kt := tm.stripes[tm.StripeOf(k)].key2lockers; kt.Holds(k, h) || kt.Locked(k) {
				t.Errorf("%s: key %d still locked (by the thread's handle: %v)", when, k, kt.Holds(k, h))
			}
		}
		for si, st := range tm.stripes {
			if st.sizeLockers.Holds(h) || st.emptyLockers.Holds(h) || st.sizeLockers.Len()+st.emptyLockers.Len() != 0 {
				t.Errorf("%s: stripe %d keeps a size or empty lock", when, si)
			}
			if tm.sorted != nil && tm.sorted.rangeLockers[si].Len() != 0 {
				t.Errorf("%s: stripe %d keeps %d range or endpoint locks", when, si, tm.sorted.rangeLockers[si].Len())
			}
		}
		tm.unlockSpan(0, len(tm.stripes))
	}
	f.q.lockSpan(0, len(f.q.lanes))
	for li, ln := range f.q.lanes {
		if ln.emptyLockers.Holds(h) || ln.emptyLockers.Len() != 0 {
			t.Errorf("%s: lane %d keeps an empty lock", when, li)
		}
	}
	f.q.unlockSpan(0, len(f.q.lanes))
}

// endTransaction runs one transaction through entry (th.Atomic or
// th.AtomicRead) that performs ops and ends as ending says, recovering
// the panic the panicking endings propagate. It returns the handle the
// attempts ran under. probe runs at the start of every retry-path attempt
// after the first, once the previous attempt has rolled back.
func endTransaction(t *testing.T, entry func(func(*stm.Tx) error) error, ending string, ops func(*stm.Tx), guard *stm.Guard, probe func(*stm.Handle)) *stm.Handle {
	t.Helper()
	errAbort := errors.New("abort")
	var h *stm.Handle
	retryAttempts := 0
	defer func() {
		r := recover()
		switch ending {
		case "body panic", "commit handler panic", "abort handler panic":
			if r != ending {
				t.Errorf("recovered %v, want %q", r, ending)
			}
		default:
			if r != nil {
				panic(r)
			}
		}
	}()
	err := entry(func(tx *stm.Tx) error {
		h = tx.Handle()
		if !tx.IsSnapshot() {
			if retryAttempts > 0 {
				probe(h)
			}
			retryAttempts++
		}
		ops(tx)
		switch ending {
		case "error return":
			return errAbort
		case "violated then retry":
			if retryAttempts == 1 {
				tx.Handle().Violate(stm.NewReason("test"))
				tx.Poll()
				t.Error("Poll returned on a violated attempt")
			}
		case "tx.Abort":
			tx.Abort(errAbort)
		case "body panic":
			panic(ending)
		case "commit handler panic":
			tx.OnCommitGuarded(guard, func() { panic(ending) })
		case "abort handler panic":
			tx.OnAbortGuarded(guard, func() { panic(ending) })
			return errAbort
		}
		return nil
	})
	switch ending {
	case "error return", "tx.Abort", "abort handler panic":
		if !errors.Is(err, errAbort) {
			t.Errorf("%s: transaction returned %v, want the abort error", ending, err)
		}
	default:
		if err != nil {
			t.Errorf("%s: transaction returned %v", ending, err)
		}
	}
	if ending == "violated then retry" && retryAttempts != 2 {
		t.Errorf("violated transaction ran %d retry-path attempts, want 2", retryAttempts)
	}
	return h
}

// TestNoTableNamesHandleAfterReturn crosses every protocol, 1 and 8
// partitions, 1 and 4 lanes, Atomic and AtomicRead and every ending, and
// probes every table after the transaction returns — and, where an
// attempt rolled back, before its retry ran.
func TestNoTableNamesHandleAfterReturn(t *testing.T) {
	for _, proto := range stm.Protocols() {
		for _, stripes := range []int{1, 8} {
			for _, lanes := range []int{1, 4} {
				for _, ending := range handleEndings {
					for _, entry := range []string{"Atomic", "AtomicRead"} {
						name := fmt.Sprintf("%s/stripes%d/lanes%d/%s/%s", proto, stripes, lanes, entry, ending)
						t.Run(name, func(t *testing.T) {
							f := newHandleFixture(stripes, lanes)
							th := newTh(1)
							if err := th.SetProtocol(proto); err != nil {
								t.Fatal(err)
							}
							atomically(t, th, func(tx *stm.Tx) {
								for k := 0; k < handleKeys; k += 4 {
									f.tm.Put(tx, k, k)
									f.sm.Put(tx, k, k)
								}
							})
							run := th.Atomic
							if entry == "AtomicRead" {
								run = th.AtomicRead
							}
							probe := func(h *stm.Handle) { f.assertUnnamed(t, h, "after rollback") }
							for i := 0; i < 3; i++ {
								h := endTransaction(t, run, ending, func(tx *stm.Tx) { f.ops(tx, i) }, f.guard, probe)
								f.assertUnnamed(t, h, "after return")
								f.drainQueue(t, th)
							}
						})
					}
				}
			}
		}
	}
}
