package stm

import (
	"errors"
	"testing"
	"time"

	"tcc/internal/obs"
	"tcc/internal/obs/metrics"
)

// withMetrics switches the live metrics plane on for the test.
func withMetrics(t *testing.T) {
	t.Helper()
	metrics.SetEnabled(true)
	t.Cleanup(func() { metrics.SetEnabled(false) })
}

// TestAtomicReadFallbackIsOneTransaction pins what a fallback keeps: an
// AtomicRead whose body writes leaves the snapshot path and goes on as
// the same transaction — one txid over every event, one begin per
// attempt and one end, and a latency (the commit event's Dur and the
// mTxLatency observation) that spans the snapshot attempt too.
func TestAtomicReadFallbackIsOneTransaction(t *testing.T) {
	sink := withSink(t)
	withMetrics(t)
	th := newTestThread()
	v := NewVar(0)
	lat := mTxLatency.Snapshot()
	if err := th.AtomicRead(func(tx *Tx) error {
		tx.Thread().Clock.Tick(1000)
		v.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []obs.Kind{obs.KindTxBegin, obs.KindTxBegin, obs.KindTxCommit}
	if !kindsEqual(sink.kinds(), want) {
		t.Fatalf("events = %v, want %v", sink.kinds(), want)
	}
	snapBegin, begin, commit := sink.events[0], sink.events[1], sink.events[2]
	if !snapBegin.Snapshot || begin.Snapshot || commit.Snapshot {
		t.Fatalf("snapshot flags = %v %v %v, want true false false", snapBegin.Snapshot, begin.Snapshot, commit.Snapshot)
	}
	for _, e := range sink.events {
		if e.TxID == 0 || e.TxID != snapBegin.TxID {
			t.Fatalf("%v carries txid %d, want the one id %d on every event", e.Kind, e.TxID, snapBegin.TxID)
		}
		if e.Attempt != 0 {
			t.Fatalf("%v has attempt %d: the first ordinary attempt after a fallback is attempt 0", e.Kind, e.Attempt)
		}
	}
	if commit.Dur != commit.Time-snapBegin.Time || commit.Dur < 2000 {
		t.Fatalf("commit Dur = %d, want %d (both attempts, 1000 cycles each)", commit.Dur, commit.Time-snapBegin.Time)
	}
	after := mTxLatency.Snapshot()
	if after.Count-lat.Count != 1 || after.Sum-lat.Sum != commit.Dur {
		t.Fatalf("latency summary moved by count %d sum %d, want 1 and %d", after.Count-lat.Count, after.Sum-lat.Sum, commit.Dur)
	}
	if s := th.Stats; s.SnapshotFallbacks != 1 || s.Commits != 1 || s.SnapshotCommits != 0 || s.UserAborts+s.Aborts != 0 {
		t.Fatalf("stats = %+v, want 1 fallback + 1 commit", s)
	}
}

// edgeCounts is what one sink says happened, in a vocabulary all three
// sinks can be read in.
type edgeCounts struct {
	commits, snapCommits, aborts, violations, userAborts, fallbacks uint64
	openCommits, nestedRetries, guardWaits, backoffs                uint64
}

// statsCounts reads Thread.Stats, summed over the scenario's workers.
// Stats has no field for guard waits or backoffs: the first is passed in
// (from the registry) and the second follows from the retry counts —
// every restart below is followed by exactly one backoff.
func statsCounts(ths []*Thread, guardWaits uint64) edgeCounts {
	var s Stats
	for _, th := range ths {
		s.Add(th.Stats)
	}
	return edgeCounts{
		commits: s.Commits, snapCommits: s.SnapshotCommits, aborts: s.Aborts,
		violations: s.Violations, userAborts: s.UserAborts, fallbacks: s.SnapshotFallbacks,
		openCommits: s.OpenCommits, nestedRetries: s.NestedRetries,
		guardWaits: guardWaits,
		backoffs:   s.Aborts + s.Violations + s.NestedRetries,
	}
}

// registryCounts reads the metrics plane's cumulative totals; the caller
// subtracts a reading taken before the scenario.
func registryCounts() (edgeCounts, map[string]uint64) {
	byCause := map[string]uint64{}
	var aborts uint64
	for cause, m := range mAborts {
		byCause[cause] = m.Total()
		aborts += m.Total()
	}
	return edgeCounts{
		commits: mCommits.Total(), snapCommits: mSnapCommits.Total(), aborts: aborts,
		violations: mViolations.Total(), userAborts: mUserAborts.Total(), fallbacks: mSnapFallbacks.Total(),
		openCommits: mOpenCommits.Total(), nestedRetries: mNestedRetries.Total(),
		guardWaits: mGuardWaits.Total(),
		backoffs:   mRetries.Total() + mNestedRetries.Total(),
	}, byCause
}

func (a edgeCounts) minus(b edgeCounts) edgeCounts {
	return edgeCounts{
		a.commits - b.commits, a.snapCommits - b.snapCommits, a.aborts - b.aborts,
		a.violations - b.violations, a.userAborts - b.userAborts, a.fallbacks - b.fallbacks,
		a.openCommits - b.openCommits, a.nestedRetries - b.nestedRetries,
		a.guardWaits - b.guardWaits, a.backoffs - b.backoffs,
	}
}

// eventCounts reads the trace. A fallback has no event kind of its own:
// it shows as an ordinary begin directly after another begin of the same
// transaction, with no rollback between them (a snapshot restart is a
// snapshot begin after a begin).
func eventCounts(events []obs.Event) (edgeCounts, map[string]uint64) {
	var c edgeCounts
	byCause := map[string]uint64{}
	begun := map[uint64]bool{} // txid → its last lifecycle event was a begin
	for _, e := range events {
		switch e.Kind {
		case obs.KindTxBegin:
			if begun[e.TxID] && !e.Snapshot {
				c.fallbacks++
			}
			begun[e.TxID] = true
			continue
		case obs.KindTxCommit:
			c.commits++
			if e.Snapshot {
				c.snapCommits++
			}
		case obs.KindTxAbort:
			c.aborts++
			cause := e.Reason
			if cause == "" {
				cause = "other"
			}
			byCause[cause]++
		case obs.KindTxViolated:
			c.violations++
		case obs.KindTxUserAbort:
			c.userAborts++
		case obs.KindOpenCommit:
			c.openCommits++
			continue
		case obs.KindNestedRetry:
			c.nestedRetries++
			continue
		case obs.KindGuardWait:
			c.guardWaits += uint64(e.Waits)
			continue
		case obs.KindBackoff:
			c.backoffs++
			continue
		default:
			continue
		}
		begun[e.TxID] = false
	}
	return c, byCause
}

// bump commits an increment of each var on th, from inside another
// worker's transaction body: the deterministic single-goroutine way of
// having a concurrent committer (protocol_conformance_test.go).
func bump(t *testing.T, th *Thread, vars ...*Var[int]) {
	t.Helper()
	MustAtomicT(t, th, func(tx *Tx) error {
		for _, v := range vars {
			v.Set(tx, v.Get(tx)+1)
		}
		return nil
	})
}

// TestLifecycleSinksAgree drives every lifecycle edge once per protocol
// with both optional sinks on and checks that Thread.Stats, the registry
// counters and the trace tell the same story: per edge the three counts
// are equal, and aborts agree cause by cause.
func TestLifecycleSinksAgree(t *testing.T) {
	errBody := errors.New("body error")
	// locked parks a foreign committer on v's lockword.
	locked := func(t *testing.T, v *Var[int]) {
		if !v.core.tryLock(&Handle{}) {
			t.Fatal("setup: tryLock failed")
		}
	}
	// The edge a scenario exists to move, as a selector on the counts.
	commits := func(c edgeCounts) uint64 { return c.commits }
	snapCommits := func(c edgeCounts) uint64 { return c.snapCommits }
	aborts := func(c edgeCounts) uint64 { return c.aborts }
	violations := func(c edgeCounts) uint64 { return c.violations }
	userAborts := func(c edgeCounts) uint64 { return c.userAborts }
	fallbacks := func(c edgeCounts) uint64 { return c.fallbacks }
	openCommits := func(c edgeCounts) uint64 { return c.openCommits }
	nestedRetries := func(c edgeCounts) uint64 { return c.nestedRetries }
	guardWaits := func(c edgeCounts) uint64 { return c.guardWaits }
	backoffs := func(c edgeCounts) uint64 { return c.backoffs }
	cases := []struct {
		name string
		// edge selects the count the scenario exists to move; it must
		// come out at least 1 (except under the protocol named by not,
		// which cannot raise the edge this way).
		edge func(c edgeCounts) uint64
		not  string
		run  func(t *testing.T, th, th2 *Thread)
	}{
		{"commit", commits, "", func(t *testing.T, th, _ *Thread) {
			bump(t, th, NewVar(0))
		}},
		{"snapshot commit", snapCommits, "", func(t *testing.T, th, _ *Thread) {
			v := NewVar(0)
			_ = th.AtomicRead(func(tx *Tx) error { _ = v.Get(tx); return nil })
		}},
		{"snapshot restart", snapCommits, "", func(t *testing.T, th, th2 *Thread) {
			v := NewVar(0)
			lapped := false
			_ = th.AtomicRead(func(tx *Tx) error {
				if !lapped {
					lapped = true
					bump(t, th2, v)
					bump(t, th2, v)
				}
				_ = v.Get(tx)
				return nil
			})
		}},
		{"abort: stale read", aborts, "", func(t *testing.T, th, th2 *Thread) {
			a, b := NewVar(0), NewVar(0)
			MustAtomicT(t, th, func(tx *Tx) error {
				_ = a.Get(tx)
				if tx.Attempt() == 0 {
					bump(t, th2, a, b)
				}
				_ = b.Get(tx)
				return nil
			})
		}},
		{"abort: read of a locked var", aborts, "norec", func(t *testing.T, th, _ *Thread) {
			v := NewVar(0)
			locked(t, v)
			MustAtomicT(t, th, func(tx *Tx) error {
				if tx.Attempt() == 0 {
					defer v.core.unlock()
				}
				_ = v.Get(tx)
				return nil
			})
		}},
		{"abort: write of a locked var", aborts, "", func(t *testing.T, th, _ *Thread) {
			v := NewVar(0)
			locked(t, v)
			MustAtomicT(t, th, func(tx *Tx) error {
				if tx.Attempt() == 1 {
					v.core.unlock()
				}
				v.Set(tx, 1)
				return nil
			})
		}},
		{"abort: commit validation", aborts, "", func(t *testing.T, th, th2 *Thread) {
			a, b := NewVar(0), NewVar(0)
			MustAtomicT(t, th, func(tx *Tx) error {
				b.Set(tx, a.Get(tx))
				if tx.Attempt() == 0 {
					bump(t, th2, a)
				}
				return nil
			})
		}},
		{"violation at Poll", violations, "", func(t *testing.T, th, _ *Thread) {
			MustAtomicT(t, th, func(tx *Tx) error {
				if tx.Attempt() == 0 {
					tx.Handle().Violate(NewReason("sinks: key conflict"))
				}
				tx.Poll()
				return nil
			})
		}},
		{"violation at commit", violations, "", func(t *testing.T, th, _ *Thread) {
			MustAtomicT(t, th, func(tx *Tx) error {
				if tx.Attempt() == 0 {
					tx.Handle().Violate(NewReason("sinks: late conflict"))
				}
				return nil
			})
		}},
		{"error return", userAborts, "", func(t *testing.T, th, _ *Thread) {
			_ = th.Atomic(func(tx *Tx) error { return errBody })
		}},
		{"error return from a snapshot", userAborts, "", func(t *testing.T, th, _ *Thread) {
			_ = th.AtomicRead(func(tx *Tx) error { return errBody })
		}},
		{"tx.Abort", userAborts, "", func(t *testing.T, th, _ *Thread) {
			_ = th.Atomic(func(tx *Tx) error { tx.Abort(errBody); return nil })
		}},
		{"AtomicRead fallback: write", fallbacks, "", func(t *testing.T, th, _ *Thread) {
			v := NewVar(0)
			_ = th.AtomicRead(func(tx *Tx) error { v.Set(tx, 1); return nil })
		}},
		{"AtomicRead fallback: handler", fallbacks, "", func(t *testing.T, th, _ *Thread) {
			_ = th.AtomicRead(func(tx *Tx) error { tx.OnCommitGuarded(testGuard, func() {}); return nil })
		}},
		{"AtomicRead fallback: Open", fallbacks, "", func(t *testing.T, th, _ *Thread) {
			_ = th.AtomicRead(func(tx *Tx) error { return tx.Open(func(*Tx) error { return nil }) })
		}},
		{"open commit", openCommits, "", func(t *testing.T, th, _ *Thread) {
			MustAtomicT(t, th, func(tx *Tx) error {
				return tx.Open(func(o *Tx) error { o.OnAbortGuarded(testGuard, func() {}); return nil })
			})
		}},
		{"nested retry", nestedRetries, "", func(t *testing.T, th, th2 *Thread) {
			outer, a, b := NewVar(0), NewVar(0), NewVar(0)
			first := true
			MustAtomicT(t, th, func(tx *Tx) error {
				_ = outer.Get(tx)
				return tx.Nested(func() error {
					_ = a.Get(tx)
					if first {
						first = false
						bump(t, th2, a, b)
					}
					_ = b.Get(tx)
					return nil
				})
			})
		}},
		{"contended guard", guardWaits, "", func(t *testing.T, th, _ *Thread) {
			// The guard is held when the commit probes it and released
			// from another goroutine a moment later; should the release
			// ever win the race, try again with a longer hold.
			g := NewGuard()
			before := mGuardWaits.Total()
			for hold := 2 * time.Millisecond; hold < time.Second && mGuardWaits.Total() == before; hold *= 4 {
				g.Lock()
				MustAtomicT(t, th, func(tx *Tx) error {
					tx.OnCommitGuarded(g, func() {})
					go func() {
						time.Sleep(hold)
						g.Unlock()
					}()
					return nil
				})
			}
		}},
		{"backoff", backoffs, "", func(t *testing.T, th, _ *Thread) {
			MustAtomicT(t, th, func(tx *Tx) error {
				if tx.Attempt() < 3 {
					tx.Handle().Violate(NewReason("sinks: again"))
				}
				tx.Poll()
				return nil
			})
		}},
	}
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					sink := withSink(t)
					withMetrics(t)
					ths := []*Thread{protoThread(t, proto, 1), protoThread(t, proto, 2)}
					reg0, causes0 := registryCounts()
					tc.run(t, ths[0], ths[1])
					reg1, causes1 := registryCounts()
					reg := reg1.minus(reg0)
					stats := statsCounts(ths, reg.guardWaits)
					trace, traceCauses := eventCounts(sink.events)
					if stats != reg || reg != trace {
						t.Errorf("the sinks disagree:\n  Stats    %+v\n  registry %+v\n  trace    %+v", stats, reg, trace)
					}
					for cause := range causes1 {
						if got, want := causes1[cause]-causes0[cause], traceCauses[cause]; got != want {
							t.Errorf("aborts under %q: registry %d, trace %d", cause, got, want)
						}
					}
					if tc.edge(stats) == 0 && proto != tc.not {
						t.Errorf("the scenario did not exercise its edge: %+v", stats)
					}
				})
			}
		})
	}
}

// TestNestedRetryConsumesConflictRecord: the conflict record is consumed
// by the edge that reports it whichever sinks are on. With only metrics
// on, a nested retry used to leave its record behind for the next abort
// to find; now the record is gone when Nested returns and the abort that
// follows is counted under its own cause.
func TestNestedRetryConsumesConflictRecord(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			withMetrics(t)
			th, th2 := protoThread(t, proto, 1), protoThread(t, proto, 2)
			outer, a, b, w := NewVar(0), NewVar(0), NewVar(0), NewVar(0)
			_, causes0 := registryCounts()
			nested0 := mNestedRetries.Total()
			MustAtomicT(t, th, func(tx *Tx) error {
				w.Set(tx, outer.Get(tx))
				if tx.Attempt() > 0 {
					return nil
				}
				if err := tx.Nested(func() error {
					_ = a.Get(tx)
					if th.Stats.NestedRetries == 0 {
						bump(t, th2, a, b)
					}
					_ = b.Get(tx)
					return nil
				}); err != nil {
					return err
				}
				if tx.conflict != (conflictRec{}) {
					t.Errorf("the nested retry left its conflict record behind: %+v", tx.conflict)
				}
				bump(t, th2, outer) // fails this attempt's commit validation
				return nil
			})
			_, causes1 := registryCounts()
			if th.Stats.NestedRetries != 1 || mNestedRetries.Total()-nested0 != 1 {
				t.Fatalf("nested retries: Stats %d, registry %d, want 1 and 1", th.Stats.NestedRetries, mNestedRetries.Total()-nested0)
			}
			if th.Stats.Aborts != 1 {
				t.Fatalf("Aborts = %d, want 1", th.Stats.Aborts)
			}
			for cause := range causes1 {
				want := uint64(0)
				if cause == causeCommitStale {
					want = 1
				}
				if got := causes1[cause] - causes0[cause]; got != want {
					t.Errorf("aborts under %q = %d, want %d", cause, got, want)
				}
			}
		})
	}
}
