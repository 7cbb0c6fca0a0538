package collections

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// Node recycling must not be observable: the structures answer exactly
// what a Go map or slice answers, through rehashes, rebalancing, Clear
// and a free list that fills and drains, and a removed value is not kept
// alive by the node that held it.

// churnPhases alternates insert-heavy and remove-heavy phases, so sizes
// cross several rehash thresholds upward and downward and the free lists
// run full and empty.
var churnPhases = []float64{0.8, 0.2, 0.9, 0.5, 0.1, 0.7, 0.3}

const (
	churnPhaseOps = 3000
	churnKeys     = 4096
)

func TestMapRecyclingMatchesModel(t *testing.T) {
	for _, c := range []struct {
		name      string
		new       func() Map[int, int]
		keys, ops int // key space, operations per phase
		// check runs after every operation.
		check func(m Map[int, int]) error
	}{
		{"HashMap", func() Map[int, int] { return NewHashMap[int, int]() }, churnKeys, churnPhaseOps,
			func(Map[int, int]) error { return nil }},
		{"TreeMap", func() Map[int, int] { return NewTreeMap[int, int]() }, churnKeys / 4, churnPhaseOps / 3,
			func(m Map[int, int]) error {
				if !slices.IsSorted(m.Keys()) {
					return errOrder
				}
				_, err := m.(*TreeMap[int, int]).checkInvariants()
				return err
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m, model := c.new(), map[int]int{}
				for phase, pPut := range churnPhases {
					for op := 0; op < c.ops; op++ {
						k, v := rng.Intn(c.keys), rng.Int()
						mold, mhad := model[k]
						var old int
						var had bool
						switch r := rng.Float64(); {
						case r < 0.001:
							m.Clear()
							clear(model)
							old, had = mold, mhad
						case r < pPut:
							old, had = m.Put(k, v)
							model[k] = v
						default:
							old, had = m.Remove(k)
							delete(model, k)
						}
						if had != mhad || old != mold {
							t.Fatalf("seed %d phase %d: key %d answered (%d,%v), model (%d,%v)", seed, phase, k, old, had, mold, mhad)
						}
						if m.Size() != len(model) {
							t.Fatalf("seed %d phase %d: Size = %d, model %d", seed, phase, m.Size(), len(model))
						}
						if err := c.check(m); err != nil {
							t.Fatalf("seed %d phase %d op %d: %v", seed, phase, op, err)
						}
					}
					got := map[int]int{}
					m.ForEach(func(k, v int) bool { got[k] = v; return true })
					if !maps.Equal(got, model) {
						t.Fatalf("seed %d phase %d: ForEach saw %d mappings, model has %d, or a value differs", seed, phase, len(got), len(model))
					}
				}
			}
		})
	}
}

func TestLinkedQueueRecyclingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, model := NewLinkedQueue[int](), []int{}
		for phase, pPut := range churnPhases {
			for op := 0; op < churnPhaseOps; op++ {
				if rng.Float64() < pPut {
					v := rng.Int()
					q.Enqueue(v)
					model = append(model, v)
				} else {
					v, ok := q.Dequeue()
					if ok != (len(model) > 0) || ok && v != model[0] {
						t.Fatalf("seed %d phase %d: Dequeue = (%d,%v), model %v", seed, phase, v, ok, model[:min(len(model), 1)])
					}
					if ok {
						model = model[1:]
					}
				}
				if q.Size() != len(model) {
					t.Fatalf("seed %d phase %d: Size = %d, model %d", seed, phase, q.Size(), len(model))
				}
				if v, ok := q.Peek(); ok != (len(model) > 0) || ok && v != model[0] {
					t.Fatalf("seed %d phase %d: Peek = (%d,%v)", seed, phase, v, ok)
				}
			}
		}
		for _, want := range model {
			if v, ok := q.Dequeue(); !ok || v != want {
				t.Fatalf("seed %d: drain Dequeue = (%d,%v), want %d", seed, v, ok, want)
			}
		}
	}
}

// TestRecyclingAllocatesNothing: a Put that follows a Remove, and an
// Enqueue that follows a Dequeue, reuse the unlinked node.
func TestRecyclingAllocatesNothing(t *testing.T) {
	h, tr, q := NewHashMap[int, int](), NewTreeMap[int, int](), NewLinkedQueue[int]()
	for k := 0; k < 64; k++ {
		h.Put(k, k)
		tr.Put(k, k)
		q.Enqueue(k)
	}
	k := 0
	cases := []struct {
		name string
		run  func()
	}{
		{"HashMap Remove then Put", func() { k++; h.Remove(k % 64); h.Put(k%64, k) }},
		{"TreeMap Remove then Put", func() { k++; tr.Remove(k % 64); tr.Put(k%64, k) }},
		{"LinkedQueue Dequeue then Enqueue", func() { v, _ := q.Dequeue(); q.Enqueue(v) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(1000, c.run); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", c.name, n)
		}
	}
}

// payload is big enough to stay out of the tiny allocator, so a weak
// pointer to it reports exactly when it became unreachable.
type payload struct {
	key int
	pad [56]byte
}

// newPayloads returns one fresh payload per key and a weak pointer to
// each, built out of line so no stack slot of the caller keeps one alive.
//
//go:noinline
func newPayloads(keys ...int) ([]*payload, []weak.Pointer[payload]) {
	ps := make([]*payload, len(keys))
	ws := make([]weak.Pointer[payload], len(keys))
	for i, k := range keys {
		ps[i] = &payload{key: k}
		ws[i] = weak.Make(ps[i])
	}
	return ps, ws
}

// collected reports whether w's value has been garbage collected.
func collected(w weak.Pointer[payload]) bool {
	runtime.GC()
	runtime.GC()
	return w.Value() == nil
}

func TestRemovedValuesAreNotRetained(t *testing.T) {
	t.Run("HashMap", func(t *testing.T) {
		m := NewHashMap[int, *payload]()
		ps, ws := newPayloads(1, 2)
		for _, p := range ps {
			m.Put(p.key, p)
		}
		ps = nil
		m.Remove(1)
		if !collected(ws[0]) {
			t.Fatal("a removed value is kept alive by its recycled node")
		}
		// Checked before the Get, which keeps m reachable through the GC.
		if collected(ws[1]) {
			t.Fatal("the value left in the map was collected")
		}
		if p, ok := m.Get(2); !ok || p.key != 2 {
			t.Fatal("the value left in the map was lost")
		}
	})
	t.Run("LinkedQueue", func(t *testing.T) {
		q := NewLinkedQueue[*payload]()
		ps, ws := newPayloads(1, 2)
		for _, p := range ps {
			q.Enqueue(p)
		}
		ps = nil
		q.Dequeue()
		if !collected(ws[0]) {
			t.Fatal("a dequeued value is kept alive by its recycled node")
		}
		if collected(ws[1]) {
			t.Fatal("the value left in the queue was collected")
		}
		if p, ok := q.Peek(); !ok || p.key != 2 {
			t.Fatal("the value left in the queue was lost")
		}
	})
	// The tree frees z, the node holding the removed key, in both of
	// CLRS's cases; with two children its successor y moves into z's
	// place and keeps its own value.
	for _, c := range []struct {
		name   string
		insert []int
		remove int
	}{
		{"TreeMap one child", []int{1, 2}, 1},       // 1 is the root, 2 its only child
		{"TreeMap two children", []int{2, 1, 3}, 2}, // 2 is the root, 3 its successor
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewTreeMap[int, *payload]()
			ps, ws := newPayloads(c.insert...)
			for _, p := range ps {
				m.Put(p.key, p)
			}
			ps = nil
			m.Remove(c.remove)
			if _, err := m.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			for i, k := range c.insert {
				if k == c.remove {
					if !collected(ws[i]) {
						t.Fatalf("removed key %d's value is kept alive by its recycled node", k)
					}
					continue
				}
				if collected(ws[i]) {
					t.Fatalf("key %d's value was collected", k)
				}
				if p, ok := m.Get(k); !ok || p.key != k {
					t.Fatalf("key %d's value was lost", k)
				}
			}
		})
	}
}
