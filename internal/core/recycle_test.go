package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// Tests of the recycled transaction-local state (DESIGN.md §4.6): a
// thread's mapLocal, queueLocal or counterLocal serves attempt after
// attempt, so nothing an attempt left in it — a key lock it believes it
// holds, a buffered write or put, a polled element, a range entry, an
// empty-lock bit, a counter contribution, a touched partition — may reach
// the next one.

// recycleLayouts are the instances the recycling tests run on: both map
// layouts and a range-striped sorted map (whose transactions also hold
// range locks and a sorted key index).
var recycleLayouts = []struct {
	name string
	new  func() (tm *TransactionalMap[int, int], sorted *TransactionalSortedMap[int, int])
}{
	{"map1", func() (*TransactionalMap[int, int], *TransactionalSortedMap[int, int]) {
		return newStripedIntMap(1), nil
	}},
	{"map16", func() (*TransactionalMap[int, int], *TransactionalSortedMap[int, int]) {
		return newStripedIntMap(16), nil
	}},
	{"sorted4", func() (*TransactionalMap[int, int], *TransactionalSortedMap[int, int]) {
		sm := NewRangeStripedTransactionalSortedMap(newIntTree, []int{16, 32, 48})
		return &sm.TransactionalMap, sm
	}},
}

// assertTablesEmpty fails unless every semantic-lock table of tm is
// empty, as they must be once no transaction is running.
func assertTablesEmpty(t *testing.T, tm *TransactionalMap[int, int], keys int) {
	t.Helper()
	tm.lockSpan(0, len(tm.stripes))
	defer tm.unlockSpan(0, len(tm.stripes))
	for k := 0; k < keys; k++ {
		if tm.stripes[tm.StripeOf(k)].key2lockers.Locked(k) {
			t.Errorf("key %d still locked", k)
		}
	}
	for si, st := range tm.stripes {
		if n := st.sizeLockers.Len() + st.emptyLockers.Len(); n != 0 {
			t.Errorf("stripe %d: %d size/empty locks left", si, n)
		}
		if tm.sorted != nil {
			if n := tm.sorted.rangeLockers[si].Len(); n != 0 {
				t.Errorf("stripe %d: %d range locks left", si, n)
			}
		}
	}
}

// TestRecycledLocalContainment ends an attempt three ways after it has
// read key 1, buffered a write to key 2, taken the size lock and (sorted
// maps) a range lock — a foreign panic the caller recovers, a violation
// that retries, tx.Abort — and then runs an ordinary transaction on the
// same thread. Every ending rolls the attempt back, so that transaction
// finds the thread's local recycled and pristine: it must take its own
// lock on key 1 (a stale keyLocks entry would skip it), must not see the
// buffered write, must register its own handlers (a stale touched mask
// would skip them, and its Put would never apply), and must leave nothing
// behind — no ending leaves a lock in a table.
func TestRecycledLocalContainment(t *testing.T) {
	for _, ly := range recycleLayouts {
		for _, ending := range []string{"foreign panic", "violated", "user abort"} {
			t.Run(ly.name+"/"+ending, func(t *testing.T) {
				tm, sorted := ly.new()
				th := newTh(1)
				atomically(t, th, func(tx *stm.Tx) {
					for k := 1; k <= 4; k++ {
						tm.Put(tx, k, 10*k)
					}
				})
				var firstLocal any
				first := func(tx *stm.Tx) {
					tm.Get(tx, 1)
					tm.Put(tx, 2, 99)
					tm.Size(tx)
					if sorted != nil {
						sorted.FirstKey(tx)
					}
					firstLocal = th.Attachment(tm)
				}
				second := func(tx *stm.Tx) {
					h := tx.Handle()
					if v, ok := tm.Get(tx, 2); !ok || v != 20 {
						t.Errorf("Get(2) = (%d,%v), want the committed 20: the dead attempt's buffer leaked", v, ok)
					}
					tm.Get(tx, 1)
					tm.lockSpan(0, len(tm.stripes))
					held := tm.stripes[tm.StripeOf(1)].key2lockers.Holds(1, h)
					tm.unlockSpan(0, len(tm.stripes))
					if !held {
						t.Error("Get(1) took no key lock under the new handle")
					}
					if th.Attachment(tm) != firstLocal {
						t.Errorf("local not recycled after %s", ending)
					}
					tm.Put(tx, 3, 33)
				}

				endAttempt(t, th, ending, first, second)

				atomically(t, th, func(tx *stm.Tx) {
					if v, ok := tm.Get(tx, 3); !ok || v != 33 {
						t.Errorf("Get(3) = (%d,%v): the second transaction's Put never applied", v, ok)
					}
					if v, _ := tm.Get(tx, 2); v != 20 {
						t.Errorf("Get(2) = %d, want 20", v)
					}
				})
				assertTablesEmpty(t, tm, 8)
			})
		}
	}
}

// TestRecycledLocalSoak runs 10 000 mixed transactions through one
// thread's recycled locals, checking every answer against a model, and
// ends with every lock table empty.
func TestRecycledLocalSoak(t *testing.T) {
	const keys, txs = 64, 10000
	for _, ly := range recycleLayouts {
		t.Run(ly.name, func(t *testing.T) {
			tm, sorted := ly.new()
			th := newTh(1)
			rng := rand.New(rand.NewSource(1))
			model := map[int]int{}
			for i := 0; i < txs && !t.Failed(); i++ {
				var shadow map[int]int // the model as this transaction leaves it
				ops := 1 + rng.Intn(6)
				abort := rng.Intn(10) == 0
				err := th.Atomic(func(tx *stm.Tx) error {
					shadow = maps.Clone(model)
					for j := 0; j < ops; j++ {
						k := rng.Intn(keys)
						want, had := shadow[k]
						switch rng.Intn(6) {
						case 0, 1:
							if v, ok := tm.Get(tx, k); ok != had || v != want {
								t.Errorf("tx %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, v, ok, want, had)
							}
						case 2:
							if old, ok := tm.Put(tx, k, i); ok != had || old != want {
								t.Errorf("tx %d: Put(%d) = (%d,%v), want (%d,%v)", i, k, old, ok, want, had)
							}
							shadow[k] = i
						case 3:
							if old, ok := tm.Remove(tx, k); ok != had || old != want {
								t.Errorf("tx %d: Remove(%d) = (%d,%v), want (%d,%v)", i, k, old, ok, want, had)
							}
							delete(shadow, k)
						case 4:
							if n := tm.Size(tx); n != len(shadow) {
								t.Errorf("tx %d: Size = %d, want %d", i, n, len(shadow))
							}
							if e := tm.IsEmpty(tx); e != (len(shadow) == 0) {
								t.Errorf("tx %d: IsEmpty = %v with %d keys", i, e, len(shadow))
							}
						case 5:
							if sorted == nil {
								tm.PutUnread(tx, k, i)
								shadow[k] = i
								break
							}
							n := 0
							sorted.SubMap(k, k+8).ForEach(tx, func(sk, sv int) bool {
								if v, ok := shadow[sk]; !ok || v != sv || sk < k || sk >= k+8 {
									t.Errorf("tx %d: scan [%d,%d) met (%d,%d)", i, k, k+8, sk, sv)
								}
								n++
								return true
							})
							for sk := k; sk < k+8; sk++ {
								if _, ok := shadow[sk]; ok {
									n--
								}
							}
							if n != 0 {
								t.Errorf("tx %d: scan [%d,%d) off by %d keys", i, k, k+8, n)
							}
						}
					}
					if abort {
						return errors.New("abort")
					}
					return nil
				})
				if (err != nil) != abort {
					t.Fatalf("tx %d: Atomic = %v, abort = %v", i, err, abort)
				}
				if !abort {
					model = shadow
				}
			}
			atomically(t, th, func(tx *stm.Tx) {
				if n := tm.Size(tx); n != len(model) {
					t.Errorf("final Size = %d, want %d", n, len(model))
				}
			})
			assertTablesEmpty(t, tm, keys)
			if l, _ := th.Attachment(tm).(*mapLocal[int, int]); l == nil || l.touched != 0 ||
				len(l.keyLocks)+len(l.storeBuffer)+len(l.rangeLocks) != 0 {
				t.Errorf("thread's local not pristine after the soak: %+v", l)
			}
		})
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRecycledLocalRetention: recycling must not turn the thread into a
// memory leak. A transaction that buffers 50 000 keys leaves no maps of
// that capacity in the thread's local (release discards a local grown
// past maxRecycledEntries), and a dropped collection is unpinned once
// the thread's bounded attachment set turns over.
func TestRecycledLocalRetention(t *testing.T) {
	const big = 50000
	th := newTh(1)
	base := liveHeap()

	tm := newStripedIntMap(16)
	if err := th.Atomic(func(tx *stm.Tx) error {
		for k := 0; k < big; k++ {
			tm.PutUnread(tx, k, k)
		}
		return errors.New("discard") // buffered, never applied
	}); err == nil {
		t.Fatal("Atomic swallowed the body's error")
	}
	l, _ := th.Attachment(tm).(*mapLocal[int, int])
	if l == nil || l.storeBuffer != nil || l.keyLocks != nil {
		t.Fatalf("oversized local kept its containers: %+v", l)
	}
	// 50 000 buffered int→mapWrite[int] entries are megabytes; a kept
	// buffer could not hide inside this margin.
	const margin = 256 << 10
	if got := liveHeap(); got > base+margin {
		t.Errorf("live heap %d KiB after the big transaction, baseline %d KiB", got>>10, base>>10)
	}
	atomically(t, th, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })
	if l2, _ := th.Attachment(tm).(*mapLocal[int, int]); l2 == l || l2.touched != 0 {
		t.Error("discarded local was reused, or its replacement is not pristine")
	}

	// The same for a queue's put buffer.
	q := newSegmentedQueue(4)
	if err := th.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < big; i++ {
			q.Put(tx, i)
		}
		return errors.New("discard")
	}); err == nil {
		t.Fatal("Atomic swallowed the body's error")
	}
	if got := liveHeap(); got > base+margin {
		t.Errorf("live heap %d KiB after the big queue transaction, baseline %d KiB", got>>10, base>>10)
	}
	atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 1) })
	if n := q.CommittedSize(); n != 1 {
		t.Errorf("queue holds %d elements after the discarded and the one-Put transaction, want 1", n)
	}

	// A collection with committed bulk, used on the thread and dropped.
	bulk := NewStripedTransactionalMap(func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, 16)
	for lo := 0; lo < big; lo += 200 {
		atomically(t, th, func(tx *stm.Tx) {
			for k := lo; k < lo+200; k++ {
				bulk.PutUnread(tx, k, k)
			}
		})
	}
	if liveHeap() < base+margin {
		t.Fatal("the bulk collection is not big enough to measure")
	}
	bulk = nil
	// The thread's slot may pin it — until this many other collections
	// have been used on the thread.
	for i := 0; i < 2*64; i++ {
		small := newIntMap()
		atomically(t, th, func(tx *stm.Tx) { small.Get(tx, i) })
	}
	if got := liveHeap(); got > base+margin {
		t.Errorf("live heap %d KiB after dropping the collection, baseline %d KiB", got>>10, base>>10)
	}
	runtime.KeepAlive(th)
}

// endAttempt runs first on th in an attempt that ends the given way — a
// foreign panic the caller recovers, a violation, tx.Abort — and next in
// the transaction that follows it on the thread (the violated attempt's
// own retry).
func endAttempt(t *testing.T, th *stm.Thread, ending string, first, next func(tx *stm.Tx)) {
	t.Helper()
	errAbort := errors.New("abort")
	switch ending {
	case "foreign panic":
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
			}()
			_ = th.Atomic(func(tx *stm.Tx) error {
				first(tx)
				panic("boom")
			})
		}()
	case "violated":
		atomically(t, th, func(tx *stm.Tx) {
			if tx.Attempt() == 0 {
				first(tx)
				tx.Handle().Violate(stm.NewReason("test"))
				tx.Poll()
				t.Error("Poll returned on a violated transaction")
			}
			next(tx)
		})
		return
	case "user abort":
		err := th.Atomic(func(tx *stm.Tx) error {
			first(tx)
			tx.Abort(errAbort)
			return nil
		})
		if !errors.Is(err, errAbort) {
			t.Fatalf("Atomic = %v, want the abort error", err)
		}
	}
	atomically(t, th, next)
}

// emptyLocks returns how many empty locks q's lanes hold in all.
func emptyLocks(q *TransactionalQueue[int]) int {
	q.lockSpan(0, len(q.lanes))
	defer q.unlockSpan(0, len(q.lanes))
	n := 0
	for _, ln := range q.lanes {
		n += ln.emptyLockers.Len()
	}
	return n
}

// TestRecycledQueueContainment is TestRecycledLocalContainment for the
// queue and the counter: an attempt polls an element, puts 99, adds 5 to
// the counter and ends one of the three ways; the transactions that
// follow on the thread must publish only their own puts (never 99),
// return only their own polls on abort (a stale removeBuffer would
// duplicate an element), register their own handlers (a stale touched
// mask would skip them and 77 would never arrive), compensate only their
// own counter contribution, and take their own empty locks. Every ending
// rolls the attempt back: what it polled is back in its lane, what it
// added to the counter is subtracted, and the local is recycled.
func TestRecycledQueueContainment(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		for _, ending := range []string{"foreign panic", "violated", "user abort"} {
			t.Run(fmt.Sprintf("lanes%d/%s", lanes, ending), func(t *testing.T) {
				q, c := newSegmentedQueue(lanes), NewCounter(0)
				th := newTh(1)
				want := map[int]int{} // the committed queue, as a multiset
				atomically(t, th, func(tx *stm.Tx) {
					for v := 10; v < 18; v++ {
						q.PutLane(tx, v%lanes, v)
						want[v]++
					}
				})
				poll := func(tx *stm.Tx) int {
					v, ok := q.Poll(tx)
					if !ok {
						t.Fatal("Poll found the queue empty")
					}
					return v
				}
				var firstLocal any
				first := func(tx *stm.Tx) {
					poll(tx)
					q.Put(tx, 99)
					c.Add(tx, 5)
					firstLocal = th.Attachment(q)
				}
				second := func(tx *stm.Tx) {
					want[poll(tx)]--
					q.Put(tx, 77)
					c.Add(tx, 2)
					if th.Attachment(q) != firstLocal {
						t.Errorf("local not recycled after %s", ending)
					}
				}
				endAttempt(t, th, ending, first, second)
				want[77]++
				// An aborting transaction returns its own poll, nothing older.
				if err := th.Atomic(func(tx *stm.Tx) error {
					poll(tx)
					c.Add(tx, 3)
					return errors.New("abort")
				}); err == nil {
					t.Fatal("Atomic swallowed the body's error")
				}
				if v := c.Value(); v != 2 {
					t.Errorf("counter = %d, want the one committed Add(2)", v)
				}

				got := map[int]int{}
				atomically(t, th, func(tx *stm.Tx) {
					clear(got)
					for v, ok := q.Poll(tx); ok; v, ok = q.Poll(tx) {
						got[v]++
					}
				})
				for v, n := range want {
					if n == 0 {
						delete(want, v)
					}
				}
				if !maps.Equal(got, want) {
					t.Errorf("drained %v, want %v", got, want)
				}
				if n := emptyLocks(q); n != 0 {
					t.Errorf("%d empty locks left by the draining transaction", n)
				}
				// The drain held every lane's empty lock; the next observer
				// of emptiness must take its own.
				atomically(t, th, func(tx *stm.Tx) {
					if _, ok := q.Peek(tx); ok {
						t.Error("Peek found an element in the drained queue")
					}
					if n := emptyLocks(q); n != lanes {
						t.Errorf("empty Peek holds %d empty locks, want %d", n, lanes)
					}
				})
				if n := emptyLocks(q); n != 0 {
					t.Errorf("%d empty locks left", n)
				}
			})
		}
	}
}

// TestRecycledQueueSoak runs 10 000 mixed queue-and-counter transactions
// through one thread's recycled locals, checking every answer against a
// model of the lanes, and ends in conservation — seeded + puts − polls =
// drained, counter = committed adds — with the local pristine.
func TestRecycledQueueSoak(t *testing.T) {
	const seeded, txs = 64, 10000
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			q, c := newSegmentedQueue(lanes), NewCounter(0)
			th := newTh(1)
			rng := rand.New(rand.NewSource(1))
			model := make([][]int, lanes) // committed lanes
			atomically(t, th, func(tx *stm.Tx) {
				for i := 0; i < seeded; i++ {
					q.PutLane(tx, i%lanes, i)
					model[i%lanes] = append(model[i%lanes], i)
				}
			})
			var puts, polls, count int64
			empties := 0
			for i := 0; i < txs && !t.Failed(); i++ {
				// The transaction's view, per lane: what is left of the
				// committed elements, its own puts behind them, and the
				// committed elements it polled (an abort returns those to the
				// lane's tail: reduced isolation, paper §3.3).
				var shadow, adds, taken [][]int
				var txPuts, txPolls, txCount int64
				// front is the model of Poll/Peek: lanes from the thread's
				// (0) upward, committed elements before own puts.
				front := func(remove bool) (int, bool) {
					for li := 0; li < lanes; li++ {
						if len(shadow[li]) > 0 {
							v := shadow[li][0]
							if remove {
								shadow[li], taken[li] = shadow[li][1:], append(taken[li], v)
							}
							return v, true
						}
						if len(adds[li]) > 0 {
							v := adds[li][0]
							if remove {
								adds[li] = adds[li][1:]
							}
							return v, true
						}
					}
					return 0, false
				}
				ops := 1 + rng.Intn(5)
				abort := rng.Intn(10) == 0
				err := th.Atomic(func(tx *stm.Tx) error {
					shadow, adds, taken = slices.Clone(model), make([][]int, lanes), make([][]int, lanes)
					txPuts, txPolls, txCount = 0, 0, 0
					for j := 0; j < ops; j++ {
						// More polls than puts: the queue keeps running dry, so
						// empty locks and polled-back own puts are routine.
						switch op := rng.Intn(7); op {
						case 0, 1, 2, 3:
							remove := op != 3
							want, had := front(remove)
							got, ok := q.Peek(tx)
							if remove {
								if got2, ok2 := q.Poll(tx); got2 != got || ok2 != ok {
									t.Errorf("tx %d: Poll = (%d,%v) after Peek = (%d,%v)", i, got2, ok2, got, ok)
								}
								if ok {
									txPolls++
								}
							}
							if ok != had || got != want {
								t.Errorf("tx %d: front = (%d,%v), want (%d,%v)", i, got, ok, want, had)
							}
							if !ok {
								empties++
								if n := emptyLocks(q); n != lanes {
									t.Errorf("tx %d: emptiness observed under %d empty locks, want %d", i, n, lanes)
								}
							}
						case 4:
							li := rng.Intn(lanes)
							q.PutLane(tx, li, i)
							adds[li] = append(adds[li], i)
							txPuts++
						case 5:
							q.Put(tx, -i)
							adds[0] = append(adds[0], -i)
							txPuts++
						case 6:
							d := int64(1 + rng.Intn(9))
							c.Add(tx, d)
							txCount += d
						}
					}
					if abort {
						return errors.New("abort")
					}
					return nil
				})
				if (err != nil) != abort {
					t.Fatalf("tx %d: Atomic = %v, abort = %v", i, err, abort)
				}
				if abort {
					adds = taken
				} else {
					puts, polls, count = puts+txPuts, polls+txPolls, count+txCount
				}
				for li := range model {
					model[li] = append(shadow[li], adds[li]...)
				}
			}
			if v := c.Value(); v != count {
				t.Errorf("counter = %d, committed adds = %d", v, count)
			}
			if empties == 0 {
				t.Error("the soak never observed emptiness")
			}
			var drained []int
			atomically(t, th, func(tx *stm.Tx) {
				drained = drained[:0]
				for v, ok := q.Poll(tx); ok; v, ok = q.Poll(tx) {
					drained = append(drained, v)
				}
			})
			if want := slices.Concat(model...); !slices.Equal(drained, want) {
				t.Errorf("drained %v, want the model's lanes %v", drained, want)
			}
			if n := int64(len(drained)); n != seeded+puts-polls {
				t.Errorf("drained %d elements, want %d seeded + %d put − %d polled", n, seeded, puts, polls)
			}
			if n := emptyLocks(q); n != 0 {
				t.Errorf("%d empty locks left", n)
			}
			l, _ := th.Attachment(q).(*queueLocal[int])
			if l == nil || l.touched != 0 || l.emptyLocked != 0 || l.h != nil {
				t.Fatalf("thread's local not pristine after the soak: %+v", l)
			}
			for li, b := range l.lanes {
				if len(b.addBuffer)+len(b.removeBuffer)+b.taken != 0 {
					t.Errorf("lane %d buffers not empty after the soak: %+v", li, b)
				}
			}
		})
	}
}

// TestRecycledQueueBuffersPinNothing: the backing arrays a queueLocal
// keeps must not keep alive what earlier transactions put or polled —
// including an own put the transaction polled back itself.
func TestRecycledQueueBuffersPinNothing(t *testing.T) {
	q := NewSegmentedTransactionalQueue(func() collections.Queue[*int] {
		return collections.NewLinkedQueue[*int]()
	}, 1)
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		q.Put(tx, new(int))
		q.Put(tx, new(int))
	})
	atomically(t, th, func(tx *stm.Tx) {
		q.Poll(tx) // committed
		q.Poll(tx)
		q.Put(tx, new(int))
		q.Poll(tx) // own put, taken back
		q.Put(tx, new(int))
	})
	l, _ := th.Attachment(q).(*queueLocal[*int])
	if l == nil || l.touched != 0 {
		t.Fatalf("thread's local not pristine: %+v", l)
	}
	b := l.lanes[0]
	if cap(b.addBuffer) < 2 || cap(b.removeBuffer) < 2 {
		t.Fatalf("buffers lost their capacity: add %d, remove %d", cap(b.addBuffer), cap(b.removeBuffer))
	}
	for _, p := range slices.Concat(b.addBuffer[:cap(b.addBuffer)], b.removeBuffer[:cap(b.removeBuffer)]) {
		if p != nil {
			t.Error("a recycled buffer still points at an element of a finished transaction")
		}
	}
}

// TestAttachmentSweepSparesLiveLocals: a transaction may use more
// collections than the thread keeps attachments for between attempts (64,
// stm's maxAttachments). The set is swept when an attempt begins, never
// inside one — a sweep there would rebuild a live local, and the
// transaction would lose its own writes.
func TestAttachmentSweepSparesLiveLocals(t *testing.T) {
	const n = 70
	th := newTh(1)
	maps := make([]*TransactionalMap[int, int], n)
	for i := range maps {
		maps[i] = newIntMap()
	}
	readBack := func(tx *stm.Tx) {
		for i, m := range maps {
			if v, ok := m.Get(tx, i); !ok || v != i {
				t.Errorf("map %d: Get(%d) = (%d,%v), want the write this transaction made", i, i, v, ok)
			}
		}
	}
	atomically(t, th, func(tx *stm.Tx) {
		for i, m := range maps {
			m.Put(tx, i, i)
		}
		readBack(tx)
	})
	atomically(t, th, readBack)
	for _, m := range maps {
		assertTablesEmpty(t, m, n)
	}
}

// TestAtomicReadWriterStampsOnRetryPath: a Put or a Counter.Add inside
// AtomicRead bails out of its handler registration on the snapshot
// attempt — which runs under the thread's one handle, with id 0 — and
// does its work on the retry attempt, under the same handle and a fresh
// id. The snapshot attempt must leave no stamp behind: every AtomicRead's
// snapshot attempt has id 0, so a local stamped 0 would pass for one the
// thread's next snapshot attempt had registered.
func TestAtomicReadWriterStampsOnRetryPath(t *testing.T) {
	tm, q, c := newIntMap(), newSegmentedQueue(1), NewCounter(0)
	th := newTh(1)
	// stamp is the id of the last attempt that reached Counter.Add on the
	// retry path: the one the counter's local must be stamped with.
	var stamp uint64
	add := func(tx *stm.Tx, d int64) {
		if !tx.IsSnapshot() {
			stamp = tx.Handle().ID()
		}
		c.Add(tx, d)
	}
	// read runs body in an AtomicRead that must fall back exactly once,
	// and then checks the stamps the attempts left.
	read := func(name string, wantErr error, body func(tx *stm.Tx) error) {
		t.Helper()
		before, attempts := th.Stats, 0
		var h *stm.Handle
		err := th.AtomicRead(func(tx *stm.Tx) error {
			attempts++
			if h != nil && tx.Handle() != h {
				t.Errorf("%s: the fallback attempt runs under a handle of its own", name)
			}
			h = tx.Handle()
			if id := h.ID(); tx.IsSnapshot() != (id == 0) {
				t.Errorf("%s: attempt (snapshot %v) has handle id %d", name, tx.IsSnapshot(), id)
			}
			return body(tx)
		})
		if err != wantErr || attempts != 2 || th.Stats.SnapshotFallbacks != before.SnapshotFallbacks+1 {
			t.Fatalf("%s: AtomicRead = %v after %d attempts and %d fallbacks, want %v, 2 and 1",
				name, err, attempts, th.Stats.SnapshotFallbacks-before.SnapshotFallbacks, wantErr)
		}
		ml, _ := th.Attachment(tm).(*mapLocal[int, int])
		ql, _ := th.Attachment(q).(*queueLocal[int])
		cl, _ := th.Attachment(c).(*counterLocal)
		if ml != nil && (ml.h != nil || ml.touched != 0) || ql != nil && (ql.h != nil || ql.touched != 0) {
			t.Errorf("%s: a finished transaction's local is still stamped or touched", name)
		}
		if cl != nil && cl.id != stamp {
			t.Errorf("%s: the counter's local is stamped %d, want %d, the last retry-path Add's attempt", name, cl.id, stamp)
		}
	}
	gen := 1 // what writes puts under key 1
	writes := func(tx *stm.Tx) error {
		tm.Put(tx, 1, gen)
		q.Put(tx, 7)
		add(tx, 5)
		return nil
	}
	committed := func(wantVal, wantQueued int, wantCount int64) {
		t.Helper()
		atomically(t, th, func(tx *stm.Tx) {
			if v, _ := tm.Get(tx, 1); v != wantVal {
				t.Errorf("map holds %d under key 1, want %d", v, wantVal)
			}
		})
		if n := q.CommittedSize(); n != wantQueued {
			t.Errorf("queue holds %d elements, want %d", n, wantQueued)
		}
		if v := c.Value(); v != wantCount {
			t.Errorf("counter = %d, want %d", v, wantCount)
		}
	}

	// The handler pairs are registered exactly once, on the retry attempt:
	// one commit handler each for the map and the queue, the writes applied.
	runs := th.Stats.HandlerRuns
	read("writes", nil, writes)
	if got := th.Stats.HandlerRuns - runs; got != 2 {
		t.Errorf("%d commit handlers ran, want the map's and the queue's, once each", got)
	}
	committed(1, 1, 5)
	// A body that reaches a collection on the snapshot attempt only leaves
	// it as it found it.
	read("map, snapshot attempt only", nil, func(tx *stm.Tx) error {
		if tx.IsSnapshot() {
			tm.Put(tx, 1, -1)
		}
		return nil
	})
	read("queue, snapshot attempt only", nil, func(tx *stm.Tx) error {
		if tx.IsSnapshot() {
			q.Put(tx, -1)
		}
		return nil
	})
	read("counter, snapshot attempt only", nil, func(tx *stm.Tx) error {
		if tx.IsSnapshot() {
			add(tx, -1)
		}
		return nil
	})
	committed(1, 1, 5)
	// The counter's abort handler too is registered exactly once: an
	// aborting retry attempt subtracts its contribution, and only that.
	errAbort := errors.New("abort")
	gen = 2
	read("aborting writes", errAbort, func(tx *stm.Tx) error {
		_ = writes(tx)
		if tx.IsSnapshot() {
			t.Error("the snapshot attempt got past a Put")
		}
		return errAbort
	})
	committed(1, 1, 5)
	// And the thread's next AtomicRead starts over like the first.
	gen = 3
	read("writes again", nil, writes)
	committed(3, 2, 10)
	assertTablesEmpty(t, tm, 4)
	if n := emptyLocks(q); n != 0 {
		t.Errorf("%d empty locks left", n)
	}
}
