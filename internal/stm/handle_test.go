package stm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tcc/internal/obs"
)

// TestViolationReasonIsNeverLost: Violate publishes the status and the
// reason in one word, so a victim that observes its violation always
// reads why. The victim spins on tx.Poll while another goroutine
// violates it — the tightest window there is between the two. A reason
// stored after the status loses that race most of the time, and the
// violation is then counted as "(unspecified)".
func TestViolationReasonIsNeverLost(t *testing.T) {
	const n = 10000
	th := NewThread(&RealClock{}, 1)
	th.SetBackoffPolicy(AggressiveRetry{})
	victims := make(chan *Handle)
	violated := make(chan struct{})
	go func() {
		defer close(violated)
		for h := range victims {
			if !h.Violate(NewReason("probe")) {
				t.Error("Violate refused while the victim was still active")
			}
		}
	}()
	for i := 0; i < n; i++ {
		first := true
		err := th.Atomic(func(tx *Tx) error {
			if !first {
				return nil
			}
			first = false
			victims <- tx.Handle()
			for {
				tx.Poll()
			}
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
	}
	close(victims)
	<-violated
	if got := th.Stats.ViolationsByReason["(unspecified)"]; got != 0 {
		t.Errorf("%d of %d violations lost their reason", got, n)
	}
	if th.Stats.Violations != n || th.Stats.ViolationsByReason["probe"] != n {
		t.Errorf("violations = %d (%v), want %d attributed to probe", th.Stats.Violations, th.Stats.ViolationsByReason, n)
	}
}

// TestHandleTxidIsRaceFree: a transaction that finds a lockword held
// reads the holder's txid through the word's owner slot (noteConflict),
// possibly after the holder released the word and its next begin reset
// the thread's handle. Four goroutines increment one Var with a tracer
// installed, so every attempt publishes a txid and conflicts are frequent;
// under -race a plain txid field reports the race.
func TestHandleTxidIsRaceFree(t *testing.T) {
	const workers, incs = 4, 20000
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			obs.SetTracer(obs.NewProfile())
			defer obs.SetTracer(nil)
			v := NewVar(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := protoThread(t, proto, int64(w+1))
					for i := 0; i < incs; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							v.Set(tx, v.Get(tx)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := v.GetCommitted(); got != workers*incs {
				t.Fatalf("v = %d, want %d", got, workers*incs)
			}
		})
	}
}

// assertNoLockword fails if any of vs is write-locked or names an owner:
// a lockword held past its attempt would be taken for the next attempt's
// own, since every attempt on a thread runs under the same handle.
func assertNoLockword(t *testing.T, vs []*Var[int], when string) {
	t.Helper()
	for i, v := range vs {
		if w := v.core.word.Load(); wordLocked(w) || v.core.owner.Load() != nil {
			t.Errorf("%s: var %d locked %v, owner %p", when, i, wordLocked(w), v.core.owner.Load())
		}
	}
}

// TestNoLockwordNamesHandleAfterReturn is the lockword half of the
// invariant the thread's one handle rests on (core's
// TestNoTableNamesHandleAfterReturn is the lock-table half): once Atomic
// or AtomicRead returns, however it returns, no Var's lockword names the
// thread's handle, and once an attempt has rolled back — tl2-eager's
// Set-time locks included — none does before the retry begins.
func TestNoLockwordNamesHandleAfterReturn(t *testing.T) {
	errAbort := errors.New("abort")
	endings := []string{
		"commit", "error return", "violated then retry", "conflict then retry",
		"tx.Abort", "body panic", "commit handler panic", "abort handler panic",
	}
	for _, proto := range Protocols() {
		for _, ending := range endings {
			for _, read := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/read=%v", proto, ending, read), func(t *testing.T) {
					vs := []*Var[int]{NewVar(0), NewVar(0), NewVar(0), NewVar(0)}
					th := protoThread(t, proto, 1)
					other := protoThread(t, proto, 2)
					entry := th.Atomic
					if read {
						entry = th.AtomicRead
					}
					retries := 0
					body := func(tx *Tx) error {
						if !tx.IsSnapshot() {
							if retries > 0 {
								assertNoLockword(t, vs, "after rollback")
							}
							retries++
						}
						seen := vs[3].Get(tx)
						for _, v := range vs[:3] {
							v.Set(tx, v.Get(tx)+1)
						}
						switch ending {
						case "error return":
							return errAbort
						case "violated then retry":
							if retries == 1 {
								tx.Handle().Violate(NewReason("test"))
								tx.Poll()
							}
						case "conflict then retry":
							if retries == 1 {
								// Another thread commits to the var this
								// attempt read: its validation fails.
								MustAtomicT(t, other, func(o *Tx) error { vs[3].Set(o, seen+1); return nil })
							}
						case "tx.Abort":
							tx.Abort(errAbort)
						case "body panic":
							panic(ending)
						case "commit handler panic":
							tx.OnCommitGuarded(testGuard, func() { panic(ending) })
						case "abort handler panic":
							tx.OnAbortGuarded(testGuard, func() { panic(ending) })
							return errAbort
						}
						return nil
					}
					for i := 0; i < 3; i++ {
						retries = 0
						func() {
							defer func() {
								if r := recover(); r != nil && r != ending {
									panic(r)
								}
							}()
							_ = entry(body)
						}()
						assertNoLockword(t, vs, "after return")
						if strings.HasSuffix(ending, "then retry") && retries != 2 {
							t.Errorf("ran %d retry-path attempts, want 2", retries)
						}
					}
				})
			}
		}
	}
}

// TestStaleViolateCostsOneRetry pins the handle contract's only cost. A
// handle kept past its attempt names the thread's later attempts too: a
// Violate on it between transactions lands on nothing, and one during a
// later transaction aborts that attempt once — a spurious retry, after
// which the transaction commits its own writes.
func TestStaleViolateCostsOneRetry(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			v := NewVar(0)
			th := protoThread(t, proto, 1)
			var stale *Handle
			MustAtomicT(t, th, func(tx *Tx) error {
				stale = tx.Handle()
				v.Set(tx, 1)
				return nil
			})
			if stale.Violate(NewReason("stale, between transactions")) {
				t.Error("Violate landed on a thread with no running attempt")
			}
			attempts := 0
			MustAtomicT(t, th, func(tx *Tx) error {
				attempts++
				if attempts == 1 && !stale.Violate(NewReason("stale")) {
					t.Error("a stale Violate during the next transaction did not land")
				}
				v.Set(tx, v.Get(tx)+1)
				return nil
			})
			if attempts != 2 || th.Stats.ViolationsByReason["stale"] != 1 {
				t.Errorf("%d attempts, %d stale violations: want 2 and 1", attempts, th.Stats.ViolationsByReason["stale"])
			}
			if got := v.GetCommitted(); got != 2 {
				t.Errorf("v = %d, want 2", got)
			}
		})
	}
}
