package stmcol

import (
	"sync"
	"testing"

	"tcc/internal/stm"
)

// TestHashMapSnapshotReads: every read operation answers from committed
// state inside one AtomicRead — a multi-operation view at one read
// version, with zero fallbacks and zero aborts.
func TestHashMapSnapshotReads(t *testing.T) {
	m := NewHashMap[int, int]().SetName("SnapMap")
	th := stm.NewThread(&stm.RealClock{}, 1)
	if err := th.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < 40; i++ {
			m.Put(tx, i, i*2)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.AtomicRead(func(tx *stm.Tx) error {
		if !tx.IsSnapshot() {
			t.Fatal("AtomicRead body is not on the snapshot path")
		}
		if v, ok := m.Get(tx, 7); !ok || v != 14 {
			t.Fatalf("Get(7) = (%d, %v), want (14, true)", v, ok)
		}
		if !m.ContainsKey(tx, 0) || m.ContainsKey(tx, 99) {
			t.Fatal("ContainsKey wrong")
		}
		if n := m.Size(tx); n != 40 {
			t.Fatalf("Size = %d, want 40", n)
		}
		seen := 0
		m.ForEach(tx, func(k, v int) bool {
			if v != k*2 {
				t.Errorf("entry (%d, %d) wrong", k, v)
			}
			seen++
			return true
		})
		if seen != 40 {
			t.Fatalf("ForEach visited %d entries, want 40", seen)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.SnapshotCommits != 1 || th.Stats.SnapshotFallbacks != 0 || th.Stats.Aborts != 0 {
		t.Fatalf("snapshot reads fell back or aborted: %+v", th.Stats)
	}
}

// TestHashMapSnapshotWalkVsWriters: the serializability the Atomos
// baseline can't get cheaply — whole-map walks under concurrent inserts
// (including rehashes) always observe size-many entries, with zero
// aborts on the reading thread.
func TestHashMapSnapshotWalkVsWriters(t *testing.T) {
	m := NewHashMap[int, int]().SetName("WalkMap")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := stm.NewThread(&stm.RealClock{}, 9)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Atomic(func(tx *stm.Tx) error {
				m.Put(tx, i, i)
				return nil
			})
		}
	}()
	reader := stm.NewThread(&stm.RealClock{}, 1)
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		var size, walked int
		if err := reader.AtomicRead(func(tx *stm.Tx) error {
			size = m.Size(tx)
			walked = 0
			m.ForEach(tx, func(int, int) bool {
				walked++
				return true
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if size != walked {
			t.Fatalf("snapshot walk saw %d entries against size %d", walked, size)
		}
	}
	close(stop)
	wg.Wait()
	if reader.Stats.Aborts != 0 {
		t.Fatalf("snapshot reader aborted: %+v", reader.Stats)
	}
}

// TestTreeMapSnapshotReads does the same for the TreeMap, including an
// ordered range walk, all inside one AtomicRead.
func TestTreeMapSnapshotReads(t *testing.T) {
	tm := NewTreeMap[int, int]().SetName("SnapTree")
	th := stm.NewThread(&stm.RealClock{}, 1)
	if err := th.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < 30; i++ {
			tm.Put(tx, i, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.AtomicRead(func(tx *stm.Tx) error {
		if !tx.IsSnapshot() {
			t.Fatal("AtomicRead body is not on the snapshot path")
		}
		if v, ok := tm.Get(tx, 11); !ok || v != 11 {
			t.Fatalf("Get(11) = (%d, %v), want (11, true)", v, ok)
		}
		if n := tm.Size(tx); n != 30 {
			t.Fatalf("Size = %d, want 30", n)
		}
		var order []int
		tm.ForEach(tx, func(k, _ int) bool {
			order = append(order, k)
			return true
		})
		if len(order) != 30 {
			t.Fatalf("ForEach visited %d entries, want 30", len(order))
		}
		for i, k := range order {
			if k != i {
				t.Fatalf("snapshot walk out of order at %d: %v", i, order)
			}
		}
		lo, hi := 10, 20
		var ranged []int
		tm.AscendRange(tx, &lo, &hi, func(k, _ int) bool {
			ranged = append(ranged, k)
			return true
		})
		if len(ranged) != 10 || ranged[0] != 10 || ranged[9] != 19 {
			t.Fatalf("AscendRange = %v, want 10..19", ranged)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.SnapshotCommits != 1 || th.Stats.SnapshotFallbacks != 0 || th.Stats.Aborts != 0 {
		t.Fatalf("snapshot reads fell back or aborted: %+v", th.Stats)
	}
}

// TestTreeMapSnapshotWalkVsRebalance walks the tree while writers force
// rotations; the snapshot must stay in order and internally consistent.
func TestTreeMapSnapshotWalkVsRebalance(t *testing.T) {
	tm := NewTreeMap[int, int]().SetName("RotTree")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := stm.NewThread(&stm.RealClock{}, 9)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Atomic(func(tx *stm.Tx) error {
				tm.Put(tx, i, i)
				return nil
			})
		}
	}()
	reader := stm.NewThread(&stm.RealClock{}, 1)
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		var size, walked, prev int
		prev = -1
		ordered := true
		if err := reader.AtomicRead(func(tx *stm.Tx) error {
			size = tm.Size(tx)
			walked, prev, ordered = 0, -1, true
			tm.ForEach(tx, func(k, _ int) bool {
				if k <= prev {
					ordered = false
				}
				prev = k
				walked++
				return true
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !ordered {
			t.Fatal("snapshot walk observed keys out of order")
		}
		if size != walked {
			t.Fatalf("snapshot walk saw %d entries against size %d", walked, size)
		}
	}
	close(stop)
	wg.Wait()
	if reader.Stats.Aborts != 0 {
		t.Fatalf("snapshot reader aborted: %+v", reader.Stats)
	}
}
