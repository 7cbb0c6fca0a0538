package stm

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcc/internal/obs"
)

var errRollback = errors.New("roll back")

func TestGuardIDsUniqueAndSorted(t *testing.T) {
	a, b, c := NewGuard(), NewGuard(), NewGuard()
	if a.ID() == b.ID() || b.ID() == c.ID() || a.ID() == c.ID() {
		t.Fatalf("guard ids not unique: %d %d %d", a.ID(), b.ID(), c.ID())
	}
	buf := []*Guard{c, a, b, a, c}
	buf = sortGuards(buf)
	if len(buf) != 3 {
		t.Fatalf("sortGuards kept %d entries, want 3 (dedup)", len(buf))
	}
	for i := 1; i < len(buf); i++ {
		if buf[i-1].id >= buf[i].id {
			t.Fatalf("sortGuards not ascending at %d: %d >= %d", i, buf[i-1].id, buf[i].id)
		}
	}
}

// notHeld returns the labels of the guards in gs that nobody holds
// right now (a TryLock probe, undone at once).
func notHeld(gs ...*Guard) []string {
	var free []string
	for _, g := range gs {
		if g.mu.TryLock() {
			g.mu.Unlock()
			free = append(free, g.Label())
		}
	}
	return free
}

// TestGuardFreeRollbackTakesNoGuard is the rollback bugfix's regression
// test: a transaction with no abort handlers — even one with a commit
// handler, whose guard is irrelevant once the transaction is rolling
// back — must abort without acquiring any guard. The old global-guard
// code locked commitMu whenever *any* handler existed; here every guard
// in sight is held hostage by another goroutine, so a rollback that
// touched one would block forever.
func TestGuardFreeRollbackTakesNoGuard(t *testing.T) {
	g := NewGuard()
	g.Lock()
	defer g.Unlock()

	done := make(chan error, 1)
	go func() {
		th := newTestThread()
		done <- th.Atomic(func(tx *Tx) error {
			// Commit handler only, under a held guard: rollback must
			// ignore it (commit guards are not rollback guards).
			tx.OnCommitGuarded(g, func() {})
			return errRollback
		})
	}()
	select {
	case err := <-done:
		if err != errRollback {
			t.Fatalf("rollback returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("guard-free rollback blocked on a guard it never registered")
	}
}

// TestRollbackAcquiresOnlyRegisteredAbortGuards: a rollback with an
// abort handler under guard A must not touch unrelated guard B (held by
// someone else), and must run the handler with A held.
func TestRollbackAcquiresOnlyRegisteredAbortGuards(t *testing.T) {
	a, b := NewGuard(), NewGuard()
	b.Lock()
	defer b.Unlock()

	done := make(chan struct{})
	heldA := false
	go func() {
		defer close(done)
		th := newTestThread()
		_ = th.Atomic(func(tx *Tx) error {
			tx.OnAbortGuarded(a, func() {
				// The protocol holds a for the handler window, so a
				// TryLock from inside the handler must fail.
				heldA = !a.mu.TryLock()
			})
			return errRollback
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("rollback blocked on an unregistered guard")
	}
	if !heldA {
		t.Fatal("abort handler ran without its registered guard held")
	}
}

// TestDisjointHandlerWindowsOverlap is the tentpole's concurrency
// witness: two transactions with disjoint guard footprints rendezvous
// *inside their commit handlers*. Each handler signals the other and
// waits for the other's signal, which can only succeed if both handler
// windows are open at the same time — under the old global commitMu
// this deadlocks (one handler holds the only guard while waiting for
// the other, which can never enter its own window).
func TestDisjointHandlerWindowsOverlap(t *testing.T) {
	ga, gb := NewGuard(), NewGuard()
	aIn, bIn := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := NewThread(&RealClock{}, 1)
		_ = th.Atomic(func(tx *Tx) error {
			tx.OnCommitGuarded(ga, func() {
				close(aIn)
				<-bIn
			})
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		th := NewThread(&RealClock{}, 2)
		_ = th.Atomic(func(tx *Tx) error {
			tx.OnCommitGuarded(gb, func() {
				close(bIn)
				<-aIn
			})
			return nil
		})
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("disjoint handler windows did not overlap: commits serialized behind a shared guard")
	}
}

// TestOverlappingGuardFootprintStress drives N workers committing and
// aborting transactions whose footprints are random overlapping subsets
// of K guards, in registration orders chosen adversarially (descending,
// interleaved). The id-ordered blocking acquisition must never
// deadlock, and every guarded counter must come out exact because each
// counter is only ever touched under its guard. Run with -race for the
// full effect.
func TestOverlappingGuardFootprintStress(t *testing.T) {
	const (
		K     = 4
		N     = 8
		iters = 300
	)
	guards := make([]*Guard, K)
	counts := make([]int64, K) // counts[i] guarded by guards[i]
	for i := range guards {
		guards[i] = NewGuard()
	}
	want := make([]int64, K)
	var wantMu sync.Mutex

	var wg sync.WaitGroup
	wg.Add(N)
	for w := 0; w < N; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			th := NewThread(&RealClock{}, int64(w))
			local := make([]int64, K)
			for it := 0; it < iters; it++ {
				// Pick an overlapping footprint of 1..K guards and a
				// shuffled registration order (the protocol must sort).
				perm := rng.Perm(K)
				n := 1 + rng.Intn(K)
				abort := rng.Intn(4) == 0
				err := th.Atomic(func(tx *Tx) error {
					for _, gi := range perm[:n] {
						gi := gi
						tx.OnCommitGuarded(guards[gi], func() {
							counts[gi]++
						})
						tx.OnAbortGuarded(guards[gi], func() {
							counts[gi]-- // compensation exercises rollback's guard set
							counts[gi]++
						})
					}
					if abort {
						return errRollback
					}
					return nil
				})
				if err == nil {
					for _, gi := range perm[:n] {
						local[gi]++
					}
				}
			}
			wantMu.Lock()
			for i, v := range local {
				want[i] += v
			}
			wantMu.Unlock()
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("overlapping-footprint stress deadlocked")
	}
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("guard %d: count %d, want %d (handler ran without mutual exclusion?)", i, counts[i], want[i])
		}
	}
}

// TestNestedFootprintMerge: a closed-nested child that registered
// guarded handlers under stripes {a, b} commits into a parent that had
// registered under {b, c}; the commit window must hold exactly the
// union {a, b, c} — the footprint the striped collections rely on when
// a child touches stripes its parent has not.
func TestNestedFootprintMerge(t *testing.T) {
	a, b, c, other := NewGuard(), NewGuard(), NewGuard(), NewGuard()
	th := newTestThread()
	var free, otherFree []string
	err := th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(b, func() {})
		tx.OnCommitGuarded(c, func() {
			free, otherFree = notHeld(a, b, c), notHeld(other)
		})
		return tx.Nested(func() error {
			tx.OnCommitGuarded(a, func() {})
			tx.OnCommitGuarded(b, func() {})
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 0 || len(otherFree) != 1 {
		t.Fatalf("commit window: %v of {a,b,c} free, unnamed guard free: %v; want exactly {a,b,c} held", free, otherFree)
	}
	if free := notHeld(a, b, c); len(free) != 3 {
		t.Fatalf("after commit only %v are free, want all of {a,b,c}", free)
	}
}

// TestAddTopGuardWidensFootprint: AddTopGuard must land the guard in
// the footprint of the commit and of the whole-transaction rollback,
// from any nesting depth — including a closed-nested child and an
// open-nested section, which is where the striped map's touch() calls it
// from.
func TestAddTopGuardWidensFootprint(t *testing.T) {
	for _, wantErr := range []error{nil, errRollback} {
		a, b, c, probe := NewGuard(), NewGuard(), NewGuard(), NewGuard()
		th := newTestThread()
		free := []string{"handler never ran"}
		err := th.Atomic(func(tx *Tx) error {
			tx.AddTopGuard(a)
			if err := tx.Nested(func() error {
				tx.AddTopGuard(b)
				return nil
			}); err != nil {
				return err
			}
			if err := tx.Open(func(o *Tx) error {
				o.AddTopGuard(c)
				return nil
			}); err != nil {
				return err
			}
			tx.OnCommitGuarded(probe, func() { free = notHeld(a, b, c) })
			tx.OnAbortGuarded(probe, func() { free = notHeld(a, b, c) })
			return wantErr
		})
		if err != wantErr {
			t.Fatalf("Atomic returned %v, want %v", err, wantErr)
		}
		if len(free) != 0 {
			t.Fatalf("ending in %v: %v not held in the handler window, want all of {a,b,c}", wantErr, free)
		}
		if free := notHeld(a, b, c); len(free) != 3 {
			t.Fatalf("ending in %v: only %v free afterwards, want all of {a,b,c}", wantErr, free)
		}
	}
}

// TestAddTopGuardHeldDuringHandlers: a guard added with AddTopGuard —
// no handler of its own — is held across the commit handler window and
// the abort handler window, which is what makes it safe for one
// handler to walk several stripes.
func TestAddTopGuardHeldDuringHandlers(t *testing.T) {
	a, b := NewGuard(), NewGuard()
	th := newTestThread()
	heldAtCommit := false
	if err := th.Atomic(func(tx *Tx) error {
		tx.OnCommitGuarded(a, func() {
			heldAtCommit = !b.mu.TryLock()
			if !heldAtCommit {
				b.mu.Unlock()
			}
		})
		tx.AddTopGuard(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !heldAtCommit {
		t.Fatal("AddTopGuard'd guard not held during the commit handler window")
	}
	heldAtAbort := false
	if err := th.Atomic(func(tx *Tx) error {
		tx.OnAbortGuarded(a, func() {
			heldAtAbort = !b.mu.TryLock()
			if !heldAtAbort {
				b.mu.Unlock()
			}
		})
		tx.AddTopGuard(b)
		return errRollback
	}); err != errRollback {
		t.Fatalf("rollback returned %v", err)
	}
	if !heldAtAbort {
		t.Fatal("AddTopGuard'd guard not held during the abort handler window")
	}
}

// TestPartialRollbackHoldsGuard: an abort handler registered in a
// closed-nested child compensates under its guard on every way out of
// the child — the child's own error, its conflict retry, and a
// violation of the whole transaction unwinding through it — exactly as
// it would on a whole-transaction rollback.
func TestPartialRollbackHoldsGuard(t *testing.T) {
	arms := []struct {
		name                      string
		wantErr                   error
		attempts                  int
		nestedRetries, violations uint64
		child                     func(t *testing.T, tx *Tx, attempt int, v1, v2 *Var[int]) error
	}{
		{"error", errRollback, 1, 0, 0, func(t *testing.T, tx *Tx, attempt int, v1, v2 *Var[int]) error {
			return errRollback
		}},
		{"conflict-retry", nil, 2, 1, 0, func(t *testing.T, tx *Tx, attempt int, v1, v2 *Var[int]) error {
			_ = v1.Get(tx)
			if attempt == 0 {
				// Another worker moves both vars on after the child read
				// v1: reading v2 cannot extend past the stale v1 and
				// retries the child.
				other := protoThread(t, tx.Thread().Protocol(), 2)
				if err := other.Atomic(func(w *Tx) error {
					v1.Set(w, 10)
					v2.Set(w, 20)
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
			_ = v2.Get(tx)
			return nil
		}},
		{"violation", nil, 2, 0, 1, func(t *testing.T, tx *Tx, attempt int, v1, v2 *Var[int]) error {
			if attempt == 0 {
				tx.Handle().Violate("test-violation")
				tx.Poll()
				t.Error("Poll on a violated transaction did not unwind")
			}
			return nil
		}},
	}
	for _, proto := range Protocols() {
		for _, arm := range arms {
			t.Run(proto+"/"+arm.name, func(t *testing.T) {
				g := NewGuard()
				v1, v2 := NewVar(0), NewVar(0)
				th := protoThread(t, proto, 1)
				attempts, runs, unguarded := 0, 0, 0
				err := th.Atomic(func(tx *Tx) error {
					return tx.Nested(func() error {
						attempt := attempts
						attempts++
						tx.OnAbortGuarded(g, func() {
							runs++
							unguarded += len(notHeld(g))
						})
						return arm.child(t, tx, attempt, v1, v2)
					})
				})
				if err != arm.wantErr || attempts != arm.attempts {
					t.Fatalf("Atomic returned %v after %d child attempts, want %v after %d", err, attempts, arm.wantErr, arm.attempts)
				}
				if th.Stats.NestedRetries != arm.nestedRetries || th.Stats.Violations != arm.violations {
					t.Fatalf("left the child by another door: %d nested retries, %d violations", th.Stats.NestedRetries, th.Stats.Violations)
				}
				if runs != 1 || unguarded != 0 {
					t.Fatalf("abort handler ran %d times, %d of them without its guard; want once, guarded", runs, unguarded)
				}
				if len(notHeld(g)) != 1 {
					t.Fatal("guard still held after the transaction")
				}
			})
		}
	}
}

// TestHandlerWindowHoldsNamedGuards is the registration seam by
// behaviour: whichever way a guard gets named — by a commit handler, an
// abort handler at the top or in a closed-nested child, a handler
// registered inside an open-nested section, AddTopGuard with no handler
// of its own, or two thousand registrations over two guards — every
// guard in `held` is locked while the probing handler runs, every
// guard in `free` (named by registrations that window has no business
// with) is not, all are released afterwards, and a bystander guard
// locked by the test for the duration is never waited on.
func TestHandlerWindowHoldsNamedGuards(t *testing.T) {
	a, b, c := NewGuard(), NewGuard(), NewGuard()
	a.SetLabel("a")
	b.SetLabel("b")
	c.SetLabel("c")
	nop := func() {}
	cases := []struct {
		name       string
		held, free []*Guard
		wantErr    error
		body       func(tx *Tx, probe func()) error
	}{
		{"commit handler", []*Guard{a, b}, nil, nil, func(tx *Tx, probe func()) error {
			tx.OnCommitGuarded(a, probe)
			tx.OnAbortGuarded(b, nop) // pending compensation: commit ∪ abort
			return nil
		}},
		{"top-level abort handler", []*Guard{a}, []*Guard{b}, errRollback, func(tx *Tx, probe func()) error {
			tx.OnAbortGuarded(a, probe)
			tx.OnCommitGuarded(b, nop) // commit-only: no business in a rollback
			return errRollback
		}},
		{"closed-nested abort handler", []*Guard{a}, []*Guard{b, c}, nil, func(tx *Tx, probe func()) error {
			tx.OnAbortGuarded(b, nop) // the parent's: a partial rollback leaves it alone
			tx.OnCommitGuarded(c, nop)
			if err := tx.Nested(func() error {
				tx.OnAbortGuarded(a, probe)
				return errRollback
			}); err != errRollback {
				return err
			}
			return nil
		}},
		{"registered inside Open", []*Guard{a, b}, nil, nil, func(tx *Tx, probe func()) error {
			return tx.Open(func(o *Tx) error {
				o.OnCommitGuarded(a, probe)
				o.OnAbortGuarded(b, nop)
				return nil
			})
		}},
		{"registered inside Open, rolled back", []*Guard{b}, []*Guard{a}, errRollback, func(tx *Tx, probe func()) error {
			if err := tx.Open(func(o *Tx) error {
				o.OnCommitGuarded(a, nop)
				o.OnAbortGuarded(b, probe)
				return nil
			}); err != nil {
				return err
			}
			return errRollback
		}},
		{"AddTopGuard alone", []*Guard{a, b}, nil, nil, func(tx *Tx, probe func()) error {
			tx.OnCommitGuarded(a, probe)
			return tx.Nested(func() error {
				tx.AddTopGuard(b) // b is named by nothing else
				return nil
			})
		}},
		{"AddTopGuard alone, rolled back", []*Guard{a, b}, nil, errRollback, func(tx *Tx, probe func()) error {
			tx.OnAbortGuarded(a, probe)
			tx.AddTopGuard(b)
			return errRollback
		}},
		{"two guards, 1000 registrations each", []*Guard{a, b}, []*Guard{c}, nil, func(tx *Tx, probe func()) error {
			for i := 0; i < 999; i++ {
				tx.OnCommitGuarded(b, nop)
				tx.OnCommitGuarded(a, nop)
			}
			tx.OnCommitGuarded(b, nop)
			tx.OnCommitGuarded(a, probe)
			return nil
		}},
	}
	bystander := NewGuard()
	bystander.Lock()
	defer bystander.Unlock()
	for _, proto := range Protocols() {
		for _, tc := range cases {
			t.Run(proto+"/"+tc.name, func(t *testing.T) {
				probes := 0
				var heldFree, freeFree []string
				probe := func() {
					probes++
					heldFree, freeFree = notHeld(tc.held...), notHeld(tc.free...)
				}
				th := protoThread(t, proto, 1)
				done := make(chan error, 1)
				go func() {
					done <- th.Atomic(func(tx *Tx) error { return tc.body(tx, probe) })
				}()
				select {
				case err := <-done:
					if err != tc.wantErr {
						t.Fatalf("Atomic returned %v, want %v", err, tc.wantErr)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("transaction blocked on a guard it never named")
				}
				if probes != 1 {
					t.Fatalf("probing handler ran %d times, want 1", probes)
				}
				if len(heldFree) != 0 || len(freeFree) != len(tc.free) {
					t.Fatalf("in the handler window %v of `held` are free and only %v of `free` are", heldFree, freeFree)
				}
				all := append(append([]*Guard{}, tc.held...), tc.free...)
				if free := notHeld(all...); len(free) != len(all) {
					t.Fatalf("after the transaction only %v are free, want all %d", free, len(all))
				}
			})
		}
	}
}

// TestGuardWaitEventEmitted: contended guarded commits surface as
// guard.wait events with the guard's label, emitted outside the window.
func TestGuardWaitEventEmitted(t *testing.T) {
	g := NewGuard()
	g.SetLabel("stress.map")
	var waits atomic.Int64
	obs.SetTracer(guardWaitCounter{&waits})
	t.Cleanup(func() { obs.SetTracer(nil) })

	const N = 4
	var wg sync.WaitGroup
	wg.Add(N)
	for w := 0; w < N; w++ {
		go func(w int) {
			defer wg.Done()
			th := NewThread(&RealClock{}, int64(w))
			for i := 0; i < 200; i++ {
				_ = th.Atomic(func(tx *Tx) error {
					tx.OnCommitGuarded(g, func() {
						time.Sleep(10 * time.Microsecond)
					})
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if waits.Load() == 0 {
		t.Skip("no guard contention observed on this run (single-core scheduling)")
	}
}

// guardWaitCounter is a concurrency-safe sink counting guard.wait
// contention.
type guardWaitCounter struct{ n *atomic.Int64 }

func (c guardWaitCounter) Trace(e obs.Event) {
	if e.Kind == obs.KindGuardWait {
		c.n.Add(int64(e.Waits))
	}
}
