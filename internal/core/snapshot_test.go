package core

import (
	"fmt"
	"testing"

	"tcc/internal/stm"
)

// Snapshot-reader matrix: the Get cells of tables_test.go with the
// reader switched to the MVCC-lite snapshot path. Get is the one core
// operation answered there; each cell that conflicts on the retry path
// (reader aborted and re-executed) must commute here — a snapshot Get
// takes no semantic lock, so there is nothing for the writer's commit
// handler to violate, and the reader completes in exactly one body
// execution with zero fallbacks.

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

// TestSnapshotReaderMatrix re-runs the conflicting Get cells of Table 1
// with a snapshot reader: both commute.
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

// TestSnapshotReadStress: concurrent AtomicRead readers against a
// committing writer on a striped map, under -race in CI. An iterator walk
// falls back to the retry path once per reader transaction, and the
// writer's pair invariant holds within the walk that commits.
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
		var got map[int]int
		must(t, reader.AtomicRead(func(tx *stm.Tx) error {
			got = map[int]int{}
			it := tm.Iterator(tx)
			for {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				got[k] = v
			}
			return nil
		}))
		if got[0] != got[1] {
			t.Errorf("a committed walk tore the pair: %v", got)
		}
	}
	close(stop)
	<-writerDone
	if reader.Stats.SnapshotFallbacks != uint64(iters) || reader.Stats.SnapshotCommits != 0 {
		t.Fatalf("reader stats = %+v, want %d fallbacks and no snapshot commit", reader.Stats, iters)
	}
}

// TestSnapshotNavigationRouting pins where each core read runs inside
// AtomicRead: every operation but Get/ContainsKey — whole-map answers,
// iterators, navigation and view scans — touches its stripes, falls back
// to the retry path once, and answers under the semantic locks, whatever
// the stripe layout.
func TestSnapshotNavigationRouting(t *testing.T) {
	type (
		tmap = *TransactionalMap[int, int]
		smap = *TransactionalSortedMap[int, int]
	)
	// A layout yields the map under test and, for a sorted layout, the
	// sorted map that embeds it.
	type layout struct {
		name string
		new  func() (tmap, smap)
	}
	var layouts []layout
	for _, stripes := range []int{1, 8} {
		layouts = append(layouts, layout{fmt.Sprintf("map%d", stripes), func() (tmap, smap) {
			return newStripedIntMap(stripes), nil
		}})
	}
	for _, ly := range sortedLayouts {
		layouts = append(layouts, layout{ly.name, func() (tmap, smap) {
			sm := ly.new()
			return &sm.TransactionalMap, sm
		}})
	}
	key := func(k int, ok bool) int {
		if !ok {
			return -1
		}
		return k
	}
	ops := []struct {
		name   string
		sorted bool // runs on sorted layouts only
		run    func(tm tmap, sm smap, tx *stm.Tx) int
		want   int
	}{
		{"size", false, func(tm tmap, _ smap, tx *stm.Tx) int { return tm.Size(tx) }, 2},
		{"isEmpty", false, func(tm tmap, _ smap, tx *stm.Tx) int {
			if tm.IsEmpty(tx) {
				return 1
			}
			return 0
		}, 0},
		{"iterate", false, func(tm tmap, _ smap, tx *stm.Tx) int {
			sum := 0
			for it := tm.Iterator(tx); it.HasNext(); {
				k, _, _ := it.Next()
				sum += k
			}
			return sum
		}, 40},
		{"firstKey", true, func(_ tmap, sm smap, tx *stm.Tx) int { return key(sm.FirstKey(tx)) }, 10},
		{"lastKey", true, func(_ tmap, sm smap, tx *stm.Tx) int { return key(sm.LastKey(tx)) }, 30},
		{"ceilingKey", true, func(_ tmap, sm smap, tx *stm.Tx) int { return key(sm.CeilingKey(tx, 15)) }, 30},
		{"lowerKey", true, func(_ tmap, sm smap, tx *stm.Tx) int { return key(sm.LowerKey(tx, 30)) }, 10},
		{"subMap", true, func(_ tmap, sm smap, tx *stm.Tx) int {
			sum := 0
			sm.SubMap(5, 35).ForEach(tx, func(k, _ int) bool { sum += k; return true })
			return sum
		}, 40},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for _, ly := range layouts {
				tm, sm := ly.new()
				if op.sorted && sm == nil {
					continue
				}
				t.Run(ly.name, func(t *testing.T) {
					atomically(t, newTh(1), func(tx *stm.Tx) {
						tm.Put(tx, 10, 10)
						tm.Put(tx, 30, 30)
					})
					th := newTh(2)
					must(t, th.AtomicRead(func(tx *stm.Tx) error {
						if got := op.run(tm, sm, tx); got != op.want {
							t.Errorf("answer = %d, want %d", got, op.want)
						}
						return nil
					}))
					if th.Stats.SnapshotFallbacks != 1 || th.Stats.SnapshotCommits != 0 {
						t.Errorf("%d-stripe map: stats = %+v, want 1 fallback and no snapshot commit",
							tm.Stripes(), th.Stats)
					}
				})
			}
		})
	}
}

// TestAtomicReadSizeThenIteratorAgree: two whole-map answers inside one
// AtomicRead see one map. The reader parks between Size and an iterator
// count while another thread commits an insert; the attempt that commits
// must have counted the same number of entries both ways.
func TestAtomicReadSizeThenIteratorAgree(t *testing.T) {
	for _, proto := range stm.Protocols() {
		for _, stripes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/%d stripes", proto, stripes), func(t *testing.T) {
				tm := newStripedIntMap(stripes)
				reader, writer := newTh(1), newTh(2)
				must(t, reader.SetProtocol(proto))
				must(t, writer.SetProtocol(proto))
				atomically(t, writer, func(tx *stm.Tx) { tm.Put(tx, 1, 1) })

				parked := make(chan struct{})
				release := make(chan struct{})
				done := make(chan error, 1)
				var size, walked int
				go func() {
					parkedOnce := false
					done <- reader.AtomicRead(func(tx *stm.Tx) error {
						size = tm.Size(tx)
						if !parkedOnce {
							parkedOnce = true
							parked <- struct{}{}
							<-release
						}
						walked = 0
						for it := tm.Iterator(tx); it.HasNext(); it.Next() {
							walked++
						}
						return nil
					})
				}()
				<-parked
				atomically(t, writer, func(tx *stm.Tx) { tm.Put(tx, 2, 2) })
				close(release)
				must(t, <-done)
				if size != walked {
					t.Fatalf("Size = %d but the iterator walked %d entries in the committed attempt", size, walked)
				}
				if size != 2 {
					t.Fatalf("Size = %d after the insert committed, want 2", size)
				}
			})
		}
	}
}
