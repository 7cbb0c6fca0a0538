package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

func newQueue() *TransactionalQueue[int] {
	return NewTransactionalQueue[int](collections.NewLinkedQueue[int]())
}

func TestQueuePutCommitsAtEnd(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		q.Put(tx, 1)
		q.Put(tx, 2)
		// Not yet committed: other transactions can't see them, but the
		// committed queue is also still empty.
		if q.CommittedSize() != 0 {
			t.Error("puts visible before commit")
		}
	})
	if q.CommittedSize() != 2 {
		t.Fatalf("committed size = %d, want 2", q.CommittedSize())
	}
}

func TestQueuePutAbortDiscards(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *stm.Tx) error {
		q.Put(tx, 1)
		return boom
	})
	if q.CommittedSize() != 0 {
		t.Fatal("aborted put leaked into queue")
	}
}

func TestQueueTakeIsCompensatedOnAbort(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 42) })
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *stm.Tx) error {
		v, ok := q.Poll(tx)
		if !ok || v != 42 {
			t.Errorf("poll = (%d,%v)", v, ok)
		}
		// Reduced isolation: the element is already gone globally.
		if q.CommittedSize() != 0 {
			t.Error("take did not remove eagerly")
		}
		return boom
	})
	// Compensation must have returned the element.
	if q.CommittedSize() != 1 {
		t.Fatalf("committed size after abort = %d, want 1", q.CommittedSize())
	}
	atomically(t, th, func(tx *stm.Tx) {
		if v, ok := q.Poll(tx); !ok || v != 42 {
			t.Errorf("element lost after compensation: (%d,%v)", v, ok)
		}
	})
}

func TestQueuePollOwnBufferedAdds(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		q.Put(tx, 7)
		if v, ok := q.Poll(tx); !ok || v != 7 {
			t.Errorf("poll own add = (%d,%v)", v, ok)
		}
		if _, ok := q.Poll(tx); ok {
			t.Error("second poll found phantom element")
		}
	})
	if q.CommittedSize() != 0 {
		t.Fatal("self-consumed element committed")
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 9) })
	atomically(t, th, func(tx *stm.Tx) {
		if v, ok := q.Peek(tx); !ok || v != 9 {
			t.Errorf("peek = (%d,%v)", v, ok)
		}
		if v, ok := q.Peek(tx); !ok || v != 9 {
			t.Errorf("second peek = (%d,%v)", v, ok)
		}
	})
	if q.CommittedSize() != 1 {
		t.Fatal("peek removed the element")
	}
}

func TestQueueEmptyPollTakesEmptyLock(t *testing.T) {
	q := newQueue()
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		if _, ok := q.Poll(tx); ok {
			t.Error("poll on empty queue succeeded")
		}
		q.guards[0].Lock()
		n := q.lanes[0].emptyLockers.Len()
		q.guards[0].Unlock()
		if n != 1 {
			t.Error("null poll did not take the empty lock")
		}
	})
	q.guards[0].Lock()
	n := q.lanes[0].emptyLockers.Len()
	q.guards[0].Unlock()
	if n != 0 {
		t.Error("empty lock leaked after commit")
	}
}

func TestQueueTakeBlocksUntilProducer(t *testing.T) {
	q := newQueue()
	got := make(chan int)
	go func() {
		th := newTh(1)
		var v int
		must(t, th.Atomic(func(tx *stm.Tx) error {
			v = q.Take(tx)
			return nil
		}))
		got <- v
	}()
	th := newTh(2)
	atomically(t, th, func(tx *stm.Tx) { q.Put(tx, 31) })
	if v := <-got; v != 31 {
		t.Fatalf("take = %d, want 31", v)
	}
}

// TestQueueNoLostOrDuplicatedWork drives producers and consumers
// concurrently (with some consumer transactions aborting after taking
// work) and checks that every element is consumed exactly once —
// compensation must neither lose nor duplicate work items.
func TestQueueNoLostOrDuplicatedWork(t *testing.T) {
	q := newQueue()
	const producers, per = 3, 60
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			th := newTh(int64(p))
			for i := 0; i < per; i++ {
				must(t, th.Atomic(func(tx *stm.Tx) error {
					q.Put(tx, p*per+i)
					return nil
				}))
			}
		}(p)
	}
	wg.Wait()

	var mu sync.Mutex
	consumed := map[int]int{}
	boom := errors.New("simulated failure")
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func(c int) {
			defer cg.Done()
			th := newTh(int64(100 + c))
			i := 0
			for {
				var v int
				var ok bool
				err := th.Atomic(func(tx *stm.Tx) error {
					v, ok = q.Poll(tx)
					if !ok {
						return nil
					}
					i++
					if i%5 == 0 {
						return boom // abort: element must be returned
					}
					return nil
				})
				if err == boom {
					continue
				}
				must(t, err)
				if !ok {
					return
				}
				mu.Lock()
				consumed[v]++
				mu.Unlock()
			}
		}(c)
	}
	cg.Wait()
	if len(consumed) != producers*per {
		t.Fatalf("consumed %d distinct items, want %d", len(consumed), producers*per)
	}
	for v, n := range consumed {
		if n != 1 {
			t.Fatalf("item %d consumed %d times", v, n)
		}
	}
	if q.CommittedSize() != 0 {
		t.Fatalf("queue not drained: %d left", q.CommittedSize())
	}
}

func TestCounterCompensation(t *testing.T) {
	c := NewCounter(0)
	th := newTh(1)
	atomically(t, th, func(tx *stm.Tx) {
		c.Add(tx, 5)
		c.Add(tx, 3)
		// Open-nested effect: visible immediately.
		if got := c.Value(); got != 8 {
			t.Errorf("mid-tx value = %d, want 8", got)
		}
	})
	if c.Value() != 8 {
		t.Fatalf("value = %d", c.Value())
	}
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *stm.Tx) error {
		c.Add(tx, 100)
		return boom
	})
	if c.Value() != 8 {
		t.Fatalf("abort compensation failed: value = %d, want 8", c.Value())
	}
}

func TestCounterConcurrentAddsNeverConflict(t *testing.T) {
	c := NewCounter(0)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	var retries uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTh(int64(w))
			for i := 0; i < per; i++ {
				must(t, th.Atomic(func(tx *stm.Tx) error {
					c.Add(tx, 1)
					return nil
				}))
			}
			mu.Lock()
			retries += th.Stats.Aborts + th.Stats.Violations
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if retries != 0 {
		t.Errorf("open-nested counter increments caused %d rollbacks", retries)
	}
}

// TestCounterCommitFootprint pins where Counter's guard is at commit. Add
// registers no commit handler, but its compensating abort handler is a
// root-level abort registration, and the commit window takes the guard of
// every such registration: a committing Add transaction waits for whoever
// holds the guard. Get registers nothing, so a transaction that only read
// the counter commits past a holder.
func TestCounterCommitFootprint(t *testing.T) {
	c := NewCounter(0)
	// commitWaits runs a transaction that calls op and then, before it
	// commits, lets the test take c's guard. It reports whether the
	// transaction was still uncommitted after wait, and checks that it
	// ran no handler.
	commitWaits := func(op func(tx *stm.Tx), wait time.Duration) bool {
		th := newTh(1)
		ready, proceed, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			first := true
			done <- th.Atomic(func(tx *stm.Tx) error {
				op(tx)
				if first {
					first = false
					close(ready)
					<-proceed
				}
				return nil
			})
		}()
		<-ready
		c.guard.Lock()
		close(proceed)
		waited := false
		select {
		case err := <-done:
			must(t, err)
		case <-time.After(wait):
			waited = true
		}
		c.guard.Unlock()
		if waited {
			must(t, <-done)
		}
		if th.Stats.Commits != 1 || th.Stats.HandlerRuns != 0 {
			t.Errorf("stats %+v, want one commit and no handler run", th.Stats)
		}
		return waited
	}
	if !commitWaits(func(tx *stm.Tx) { c.Add(tx, 1) }, 50*time.Millisecond) {
		t.Error("an Add transaction committed while another goroutine held Counter's guard")
	}
	if commitWaits(func(tx *stm.Tx) { c.Get(tx) }, 5*time.Second) {
		t.Error("a Get transaction waited at commit for Counter's guard")
	}
	if c.Value() != 1 {
		t.Fatalf("value = %d, want 1", c.Value())
	}
}

func TestUIDGenUniqueMonotonicWithGaps(t *testing.T) {
	g := NewUIDGen(1)
	th := newTh(1)
	var ids []int64
	atomically(t, th, func(tx *stm.Tx) {
		ids = append(ids, g.Next(tx), g.Next(tx))
	})
	boom := errors.New("boom")
	_ = th.Atomic(func(tx *stm.Tx) error {
		g.Next(tx) // consumed and skipped: no compensation
		return boom
	})
	atomically(t, th, func(tx *stm.Tx) {
		ids = append(ids, g.Next(tx))
	})
	if ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("ids = %v", ids)
	}
	if ids[2] != 4 {
		t.Fatalf("expected gap after aborted transaction: ids = %v", ids)
	}
}

func TestUIDGenConcurrentUnique(t *testing.T) {
	g := NewUIDGen(0)
	const workers, per = 6, 100
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newTh(int64(w))
			for i := 0; i < per; i++ {
				var id int64
				must(t, th.Atomic(func(tx *stm.Tx) error {
					id = g.Next(tx)
					return nil
				}))
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != workers*per {
		t.Fatalf("got %d ids, want %d", len(seen), workers*per)
	}
}
