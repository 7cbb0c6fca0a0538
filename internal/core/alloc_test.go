package core

import (
	"errors"
	"fmt"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/obs"
	"tcc/internal/stm"
)

// Allocation counts for the semantic wrappers, next to internal/stm's for
// the retry loop: a steady-state transaction on a warm thread allocates
// nothing, committed or aborted. The attempt runs under the thread's one
// Handle and unwinds with the thread's one signal; the transaction-locals
// (mapLocal, queueLocal, counterLocal) with their containers and
// handlers, the sorted map's buffer index, the key-lock entries with
// their overflow arrays and the range entries are all recycled
// (DESIGN.md §4.6); a violation publishes a Reason the collection built
// once; a sorted view is a value and a scan's iterator stays on the
// stack; and the wrapped structures reuse the nodes that Remove and
// Dequeue unlinked. Each count is the exact steady state, so one object
// more is a failure (a one-Get transaction going from 0 to 1 is
// map-long's whole allocs_per_tx); the closures handed to Atomic are
// built once, outside the measured run, so the numbers are the wrapper's.
// Every count holds for the 1-partition and the striped layout alike:
// one partition is the degenerate case, not a second path. Before the
// recycling the same transactions cost 11 (Get), 29 (Put then Remove),
// 30 (8 operations), 13 (sorted Get), 61 (scan), 11 (Poll, Put,
// Counter.Add), 7 (Poll) and 3 (Counter.Add) objects; while the buffer
// index was a tree and the view a pointer, 5 (sorted Put then Remove), 5
// (sorted-scan body) and 2 (scan); while each attempt minted a fresh
// Handle, one more per transaction; and while the wrapped structures
// allocated every node afresh, 1 for each transaction that inserts (the
// hash map's, the tree's or the linked queue's node).

const allocKeys = 1024

// fillEven inserts the even keys of [0, allocKeys), 64 to a transaction.
func fillEven(t *testing.T, th *stm.Thread, tm *TransactionalMap[int, int]) {
	t.Helper()
	for lo := 0; lo < allocKeys; lo += 128 {
		atomically(t, th, func(tx *stm.Tx) {
			for k := lo; k < lo+128; k += 2 {
				tm.Put(tx, k, k)
			}
		})
	}
}

// assertAllocs warms run — the thread's pools, the recycled local, the
// lock tables — and holds its steady state to exactly want objects
// (AllocsPerRun's average is integral: a rare table growth rounds away).
func assertAllocs(t *testing.T, what string, want float64, run func()) {
	t.Helper()
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	for i := 0; i < 16; i++ {
		run()
	}
	got := testing.AllocsPerRun(200, run)
	t.Logf("%s: %.2f (want %.0f)", what, got, want)
	if got != want {
		t.Errorf("%s allocates %.2f objects/run, its steady state is %.0f", what, got, want)
	}
}

func TestMapAllocationGuardrails(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			tm := NewStripedTransactionalMap(func() collections.Map[int, int] {
				return collections.NewHashMap[int, int]()
			}, stripes)
			th := newTh(1)
			fillEven(t, th, tm)
			i := 0
			odd := func(i int) int { return (2*i + 1) % allocKeys } // absent keys
			get := func(tx *stm.Tx) error { tm.Get(tx, i%allocKeys); return nil }
			put := func(tx *stm.Tx) error { tm.Put(tx, odd(i), i); return nil }
			remove := func(tx *stm.Tx) error { tm.Remove(tx, odd(i)); return nil }
			size := func(tx *stm.Tx) error { tm.Size(tx); return nil }
			// bench's map-long body: 8 commuting operations, 80/10/10. The
			// Remove takes out what the previous run's Put inserted.
			long := func(tx *stm.Tx) error {
				for j := 0; j < 6; j++ {
					tm.Get(tx, (i*7+j*131)%allocKeys)
				}
				tm.Put(tx, odd(i), i)
				tm.Remove(tx, odd(i-1))
				return nil
			}
			assertAllocs(t, "one-Get transaction", 0, func() { i++; _ = th.Atomic(get) })
			// The node the Remove unlinked is the next Put's.
			assertAllocs(t, "Put then Remove transactions", 0, func() {
				i++
				_ = th.Atomic(put)
				_ = th.Atomic(remove)
			})
			assertAllocs(t, "8-operation transaction", 0, func() { i++; _ = th.Atomic(long) })
			assertAllocs(t, "Size transaction", 0, func() { _ = th.Atomic(size) })
		})
	}
}

func TestSortedMapAllocationGuardrails(t *testing.T) {
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			var bounds []int
			for s := 1; s < stripes; s++ {
				bounds = append(bounds, s*allocKeys/stripes)
			}
			tm := NewRangeStripedTransactionalSortedMap(func() collections.SortedMap[int, int] {
				return newIntTree()
			}, bounds)
			th := newTh(1)
			fillEven(t, th, &tm.TransactionalMap)
			i := 0
			odd := func(i int) int { return (2*i + 1) % allocKeys } // absent keys
			get := func(tx *stm.Tx) error { tm.Get(tx, i%allocKeys); return nil }
			put := func(tx *stm.Tx) error { tm.Put(tx, odd(i), i); return nil }
			remove := func(tx *stm.Tx) error { tm.Remove(tx, odd(i)); return nil }
			scanned := 0
			visit := func(int, int) bool { scanned++; return true }
			scan := func(tx *stm.Tx) error {
				lo := (i * 37) % (allocKeys - 32)
				tm.SubMap(lo, lo+32).ForEach(tx, visit) // 16 present keys
				return nil
			}
			skip := func(int, int) bool { return true }
			// bench's sorted-scan body. The Remove takes out what the
			// previous run's Put inserted.
			body := func(tx *stm.Tx) error {
				tm.Get(tx, (i*7)%allocKeys)
				tm.CeilingKey(tx, (i*131)%allocKeys)
				tm.Put(tx, odd(i), i)
				tm.Remove(tx, odd(i-1))
				lo := (i * 37) % (allocKeys - 32)
				tm.SubMap(lo, lo+32).ForEach(tx, skip)
				return nil
			}
			assertAllocs(t, "sorted one-Get transaction", 0, func() { i++; _ = th.Atomic(get) })
			// The buffer index keeps its array between transactions, and
			// the tree its removed node.
			assertAllocs(t, "sorted Put then Remove transactions", 0, func() {
				i++
				_ = th.Atomic(put)
				_ = th.Atomic(remove)
			})
			// The view is a value and the iterator stays on ForEach's
			// stack: nothing per scan loop or scanned key.
			assertAllocs(t, "16-key SubMap scan", 0, func() { i++; _ = th.Atomic(scan) })
			// Last: it leaves one odd key behind, which the scan above
			// would count.
			assertAllocs(t, "sorted-scan body", 0, func() { i++; _ = th.Atomic(body) })
			if scanned == 0 || scanned%16 != 0 {
				t.Fatalf("scans visited %d keys, want 16 each", scanned)
			}
		})
	}
}

func TestQueueAllocationGuardrails(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			q, c := newSegmentedQueue(lanes), NewCounter(0)
			th := newTh(1)
			// Enough in every lane for each measured Poll to find an element
			// (the thread's own lane first, then stolen from the others).
			for lo := 0; lo < 1024; lo += 64 {
				atomically(t, th, func(tx *stm.Tx) {
					for i := lo; i < lo+64; i++ {
						q.PutLane(tx, i%lanes, i)
					}
				})
			}
			empty := newSegmentedQueue(lanes)
			polled := 0
			poll := func(tx *stm.Tx) error {
				if _, ok := q.Poll(tx); ok {
					polled++
				}
				return nil
			}
			// bench's queue-pipeline body with one Put.
			pipeline := func(tx *stm.Tx) error {
				_ = poll(tx)
				q.Put(tx, polled)
				c.Add(tx, 1)
				return nil
			}
			add := func(tx *stm.Tx) error { c.Add(tx, 1); return nil }
			pollEmpty := func(tx *stm.Tx) error {
				if _, ok := empty.Poll(tx); ok {
					t.Error("Poll on the empty queue returned an element")
				}
				return nil
			}
			// The committed Put reuses the node the Poll's commit dequeued.
			assertAllocs(t, "Poll, Put, Counter.Add transaction", 0, func() { _ = th.Atomic(pipeline) })
			assertAllocs(t, "Poll transaction", 0, func() { _ = th.Atomic(poll) })
			assertAllocs(t, "Counter.Add transaction", 0, func() { _ = th.Atomic(add) })
			// Every lane's empty lock taken and released.
			assertAllocs(t, "empty-queue Poll transaction", 0, func() { _ = th.Atomic(pollEmpty) })
			if want := 2 * (16 + 1 + 200); polled != want {
				t.Fatalf("%d Polls found an element, want all %d", polled, want)
			}
		})
	}
}

// TestAbortPathAllocationGuardrails: an attempt that does not commit
// allocates nothing either — not the signal it unwinds with, not the
// violation its committer publishes, not a second reader's place in a
// key's lock entry. other commits inside th's body, between two of th's
// operations: its guard windows open and close there, and th holds no
// guard in its body.
func TestAbortPathAllocationGuardrails(t *testing.T) {
	for _, stripes := range []int{1, 16} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			tm := NewStripedTransactionalMap(func() collections.Map[int, int] {
				return collections.NewHashMap[int, int]()
			}, stripes)
			th, other := newTh(1), newTh(2)
			fillEven(t, th, tm)
			i, attempts := 0, 0
			errStop := errors.New("stop")
			key := func() int { return 2 * (i % (allocKeys / 2)) } // present keys
			get := func(tx *stm.Tx) error { tm.Get(tx, key()); return nil }
			put := func(tx *stm.Tx) error { tm.Put(tx, key(), i); return nil }
			// A reader and a buffered write, rolled back by tx.Abort.
			abort := func(tx *stm.Tx) error {
				tm.Get(tx, key())
				tm.Put(tx, key()+1, i)
				tx.Abort(errStop)
				return nil
			}
			// A reader whose first attempt other's commit of the same key
			// violates; the retry commits.
			violated := func(tx *stm.Tx) error {
				tm.Get(tx, key())
				if attempts++; attempts == 1 {
					must(t, other.Atomic(put))
				}
				return nil
			}
			// Two attempts holding one key's lock at once: other's entry
			// goes to the key's overflow array.
			shared := func(tx *stm.Tx) error {
				tm.Get(tx, key())
				must(t, other.Atomic(get))
				return nil
			}
			assertAllocs(t, "tx.Abort transaction", 0, func() {
				i++
				if err := th.Atomic(abort); err != errStop {
					t.Fatalf("Atomic = %v, want %v", err, errStop)
				}
			})
			violations := th.Stats.Violations
			runs := 0
			assertAllocs(t, "violated and retried transaction", 0, func() {
				i++
				runs++
				attempts = 0
				must(t, th.Atomic(violated))
				if attempts != 2 {
					t.Fatalf("violated transaction ran %d attempts, want 2", attempts)
				}
			})
			if got := th.Stats.Violations - violations; got != uint64(runs) {
				t.Fatalf("%d violations in %d runs, want one each", got, runs)
			}
			assertAllocs(t, "two attempts sharing a key lock", 0, func() {
				i++
				must(t, th.Atomic(shared))
			})
		})
	}
}
