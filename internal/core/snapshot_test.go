package core

import (
	"sort"
	"testing"

	"tcc/internal/stm"
)

// Snapshot-reader matrix: the interleavings of tables_test.go with the
// reader switched to the MVCC-lite snapshot path. Every cell that
// conflicts on the retry path (reader aborted and re-executed) must
// commute here — a snapshot reader takes no semantic locks, so there is
// nothing for the writer's commit handler to violate, and the reader
// completes in exactly one body execution with zero fallbacks.

// runSnapshotInterleaved parks a snapshot reader mid-body, commits a
// writer under it, and resumes the reader. It fails the test if the
// reader re-executed, fell back to the retry path, or aborted.
func runSnapshotInterleaved(t *testing.T, setup, read, write func(tx *stm.Tx)) {
	t.Helper()
	th0 := stm.NewThread(&stm.RealClock{}, 0)
	if setup != nil {
		atomically(t, th0, setup)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	runs := 0
	th1 := stm.NewThread(&stm.RealClock{}, 1)
	go func() {
		done <- th1.AtomicRead(func(tx *stm.Tx) error {
			runs++
			read(tx)
			if runs == 1 {
				parked <- struct{}{}
				<-release
			}
			return nil
		})
	}()
	<-parked
	th2 := stm.NewThread(&stm.RealClock{}, 2)
	atomically(t, th2, write)
	close(release)
	must(t, <-done)
	if runs != 1 {
		t.Fatalf("snapshot reader ran %d times, want 1", runs)
	}
	if th1.Stats.SnapshotFallbacks != 0 || th1.Stats.Aborts != 0 || th1.Stats.SnapshotCommits != 1 {
		t.Fatalf("snapshot reader stats = %+v, want 1 snapshot commit and no fallbacks/aborts", th1.Stats)
	}
}

// TestSnapshotReaderMatrix re-runs the conflicting cells of Table 1
// with a snapshot reader: every one commutes.
func TestSnapshotReaderMatrix(t *testing.T) {
	seed := func(tm *TransactionalMap[int, int], pairs ...int) func(tx *stm.Tx) {
		return func(tx *stm.Tx) {
			for i := 0; i+1 < len(pairs); i += 2 {
				tm.Put(tx, pairs[i], pairs[i+1])
			}
		}
	}

	t.Run("get/put-same-key", func(t *testing.T) {
		tm := newIntMap()
		runSnapshotInterleaved(t,
			seed(tm, 1, 10),
			func(tx *stm.Tx) {
				if v, ok := tm.Get(tx, 1); !ok || v != 10 {
					t.Errorf("snapshot get = (%d, %v), want (10, true)", v, ok)
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 1, 11) },
		)
	})
	t.Run("get/remove-same-key", func(t *testing.T) {
		tm := newIntMap()
		runSnapshotInterleaved(t,
			seed(tm, 1, 10),
			func(tx *stm.Tx) { tm.Get(tx, 1) },
			func(tx *stm.Tx) { tm.Remove(tx, 1) },
		)
	})
	t.Run("size/put-new-key", func(t *testing.T) {
		tm := newIntMap()
		runSnapshotInterleaved(t,
			seed(tm, 1, 1),
			func(tx *stm.Tx) {
				if n := tm.Size(tx); n != 1 {
					t.Errorf("snapshot size = %d, want 1", n)
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	})
	t.Run("isEmpty/put-into-empty-map", func(t *testing.T) {
		tm := newIntMap()
		runSnapshotInterleaved(t,
			nil,
			func(tx *stm.Tx) {
				if !tm.IsEmpty(tx) {
					t.Error("fresh map not empty")
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 1, 1) },
		)
	})
	t.Run("iterate-exhausted/put-new-key", func(t *testing.T) {
		tm := newIntMap()
		runSnapshotInterleaved(t,
			seed(tm, 1, 1),
			func(tx *stm.Tx) {
				it := tm.Iterator(tx)
				n := 0
				for it.HasNext() {
					it.Next()
					n++
				}
				if n != 1 {
					t.Errorf("snapshot iterator saw %d entries, want 1", n)
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 2, 2) },
		)
	})
	t.Run("striped-size/put-new-key", func(t *testing.T) {
		tm := newStripedIntMap(8)
		runSnapshotInterleaved(t,
			seed(tm, 1, 1, 2, 2, 3, 3),
			func(tx *stm.Tx) {
				if n := tm.Size(tx); n != 3 {
					t.Errorf("snapshot size = %d, want 3", n)
				}
			},
			func(tx *stm.Tx) { tm.Put(tx, 4, 4) },
		)
	})
}

// TestSnapshotIteratorFrozenView: the snapshot iterator's view is
// captured whole at creation — entries committed mid-walk do not appear
// and do not disturb the walk.
func TestSnapshotIteratorFrozenView(t *testing.T) {
	tm := newStripedIntMap(4)
	th := stm.NewThread(&stm.RealClock{}, 1)
	writer := stm.NewThread(&stm.RealClock{}, 2)
	atomically(t, th, func(tx *stm.Tx) {
		for i := 0; i < 10; i++ {
			tm.Put(tx, i, i*10)
		}
	})
	var keys []int
	must(t, th.AtomicRead(func(tx *stm.Tx) error {
		it := tm.Iterator(tx)
		first := true
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			if first {
				// A commit mid-walk must not leak into this view.
				first = false
				atomically(t, writer, func(wtx *stm.Tx) { tm.Put(wtx, 100, 1) })
			}
			if v != k*10 {
				t.Errorf("entry (%d, %d) torn", k, v)
			}
			keys = append(keys, k)
		}
		return nil
	}))
	sort.Ints(keys)
	if len(keys) != 10 || keys[0] != 0 || keys[9] != 9 {
		t.Fatalf("frozen walk saw keys %v, want exactly 0..9", keys)
	}
	if th.Stats.SnapshotFallbacks != 0 {
		t.Fatalf("iterator walk fell back: %+v", th.Stats)
	}
}

// TestSnapshotFallbackOnCollectionWrite: a collection write inside
// AtomicRead cannot stay invisible — it re-runs on the retry path and
// commits through the normal Table 3 buffer.
func TestSnapshotFallbackOnCollectionWrite(t *testing.T) {
	tm := newIntMap()
	th := stm.NewThread(&stm.RealClock{}, 1)
	must(t, th.AtomicRead(func(tx *stm.Tx) error {
		tm.Put(tx, 1, 10)
		return nil
	}))
	if th.Stats.SnapshotFallbacks != 1 || th.Stats.Commits != 1 {
		t.Fatalf("stats = %+v, want 1 fallback + 1 commit", th.Stats)
	}
	atomically(t, th, func(tx *stm.Tx) {
		if v, ok := tm.Get(tx, 1); !ok || v != 10 {
			t.Errorf("fallback write lost: (%d, %v)", v, ok)
		}
	})
}

// TestSnapshotReadStress: concurrent snapshot readers against a
// committing writer on a striped map, under -race in CI. Readers check
// the writer's pair invariant within one frozen iterator walk.
func TestSnapshotReadStress(t *testing.T) {
	tm := newStripedIntMap(8)
	th0 := stm.NewThread(&stm.RealClock{}, 0)
	atomically(t, th0, func(tx *stm.Tx) {
		tm.Put(tx, 0, 0)
		tm.Put(tx, 1, 0)
	})
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := stm.NewThread(&stm.RealClock{}, 9)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Atomic(func(tx *stm.Tx) error {
				// Keys 0 and 1 always carry the same value.
				tm.Put(tx, 0, i)
				tm.Put(tx, 1, i)
				return nil
			})
		}
	}()
	reader := stm.NewThread(&stm.RealClock{}, 1)
	iters := 300
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		must(t, reader.AtomicRead(func(tx *stm.Tx) error {
			got := map[int]int{}
			it := tm.Iterator(tx)
			for {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				got[k] = v
			}
			if got[0] != got[1] {
				t.Errorf("frozen walk tore the pair: %v", got)
			}
			return nil
		}))
	}
	close(stop)
	<-writerDone
	if reader.Stats.SnapshotFallbacks != 0 || reader.Stats.Aborts != 0 {
		t.Fatalf("reader stats = %+v, want no fallbacks/aborts", reader.Stats)
	}
}

// TestSnapshotNavigationRouting pins the one layout-dependent branch the
// stripe engine keeps (snapshotRouted): inside AtomicRead a range-striped
// map answers navigation queries on the snapshot path, a single-stripe
// map falls back to the retry path — once per transaction.
func TestSnapshotNavigationRouting(t *testing.T) {
	type sm = *TransactionalSortedMap[int, int]
	ops := []struct {
		name string
		run  func(tm sm, tx *stm.Tx) (int, bool)
		want int
	}{
		{"firstKey", func(tm sm, tx *stm.Tx) (int, bool) { return tm.FirstKey(tx) }, 10},
		{"lastKey", func(tm sm, tx *stm.Tx) (int, bool) { return tm.LastKey(tx) }, 30},
		{"ceilingKey", func(tm sm, tx *stm.Tx) (int, bool) { return tm.CeilingKey(tx, 15) }, 30},
		{"lowerKey", func(tm sm, tx *stm.Tx) (int, bool) { return tm.LowerKey(tx, 30) }, 10},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			forEachSortedLayout(t, func(t *testing.T, tm sm) {
				atomically(t, newTh(1), func(tx *stm.Tx) {
					tm.Put(tx, 10, 10)
					tm.Put(tx, 30, 30)
				})
				th := newTh(2)
				must(t, th.AtomicRead(func(tx *stm.Tx) error {
					if k, ok := op.run(tm, tx); !ok || k != op.want {
						t.Errorf("answer = (%d,%v), want %d", k, ok, op.want)
					}
					return nil
				}))
				wantFallbacks := uint64(1)
				if tm.Stripes() > 1 {
					wantFallbacks = 0
				}
				if th.Stats.SnapshotFallbacks != wantFallbacks {
					t.Errorf("%d-stripe map: SnapshotFallbacks = %d, want %d",
						tm.Stripes(), th.Stats.SnapshotFallbacks, wantFallbacks)
				}
			})
		})
	}
}
