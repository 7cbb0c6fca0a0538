package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tcc/internal/stm"
)

// TestMapQuickMatchesModel is a quick-check property: any sequence of
// operations, split arbitrarily into committed transactions, leaves the
// TransactionalMap equal to a plain map driven by the same sequence —
// and every operation's return value matches along the way.
func TestMapQuickMatchesModel(t *testing.T) {
	type qop struct {
		Kind  uint8
		Key   int8
		Val   int16
		Split bool // commit the running transaction before this op
	}
	prop := func(ops []qop) bool {
		tm := newIntMap()
		ref := map[int]int{}
		th := stm.NewThread(&stm.RealClock{}, 3)
		i := 0
		okAll := true
		for i < len(ops) {
			err := th.Atomic(func(tx *stm.Tx) error {
				for ; i < len(ops); i++ {
					op := ops[i]
					if op.Split && i > 0 {
						i++
						return nil // commit here, continue in a new tx
					}
					k, v := int(op.Key), int(op.Val)
					switch op.Kind % 6 {
					case 0:
						gotV, gotOK := tm.Get(tx, k)
						wantV, wantOK := ref[k]
						if gotOK != wantOK || (wantOK && gotV != wantV) {
							okAll = false
						}
					case 1:
						gotV, gotOK := tm.Put(tx, k, v)
						wantV, wantOK := ref[k]
						if gotOK != wantOK || (wantOK && gotV != wantV) {
							okAll = false
						}
						ref[k] = v
					case 2:
						gotV, gotOK := tm.Remove(tx, k)
						wantV, wantOK := ref[k]
						if gotOK != wantOK || (wantOK && gotV != wantV) {
							okAll = false
						}
						delete(ref, k)
					case 3:
						tm.PutUnread(tx, k, v)
						ref[k] = v
					case 4:
						if tm.Size(tx) != len(ref) {
							okAll = false
						}
					default:
						if tm.IsEmpty(tx) != (len(ref) == 0) {
							okAll = false
						}
					}
				}
				return nil
			})
			if err != nil {
				return false
			}
		}
		// Final committed state must equal the model.
		finalOK := true
		_ = th.Atomic(func(tx *stm.Tx) error {
			if tm.Size(tx) != len(ref) {
				finalOK = false
			}
			for k, v := range ref {
				if got, ok := tm.Get(tx, k); !ok || got != v {
					finalOK = false
				}
			}
			return nil
		})
		return okAll && finalOK
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedQuickOrderedIteration quick-checks the sorted buffer index
// against a sorted model. For any committed keys and any buffered mix of
// Puts and Removes in random order — a key removed and then put again,
// an absent key removed — iteration, FirstKey/LastKey, the four
// navigation queries at probes on both sides of every stripe boundary,
// and the SubMap/HeadMap/TailMap key lists answer as the model does. It
// runs on every sorted layout and on eight range stripes whose
// boundaries split the key range.
func TestSortedQuickOrderedIteration(t *testing.T) {
	type bop struct {
		Kind uint8
		Key  int8
		Val  int16
	}
	layouts := append(slices.Clip(sortedLayouts), struct {
		name string
		new  func() *TransactionalSortedMap[int, int]
	}{"range8", func() *TransactionalSortedMap[int, int] {
		return NewRangeStripedTransactionalSortedMap[int, int](newIntTree, []int{-96, -64, -32, 0, 32, 64, 96})
	}})
	// nearest is the model's navigation query: the key of keys (ascending)
	// nearest p in direction d, p itself excluded when strict.
	nearest := func(keys []int, p int, d dir, strict bool) (int, bool) {
		for i := range keys {
			k := keys[i]
			if d == down {
				k = keys[len(keys)-1-i]
			}
			if c := int(d) * (k - p); c > 0 || c == 0 && !strict {
				return k, true
			}
		}
		return 0, false
	}
	// within is the model's view: the keys in [lo, hi), a missing bound
	// being the end of the key space.
	within := func(keys []int, lo, hi int, hasLo, hasHi bool) []int {
		var out []int
		for _, k := range keys {
			if (!hasLo || k >= lo) && (!hasHi || k < hi) {
				out = append(out, k)
			}
		}
		return out
	}
	for _, ly := range layouts {
		t.Run(ly.name, func(t *testing.T) {
			var mismatch string
			prop := func(committed []int8, ops []bop) bool {
				tm := ly.new()
				ref := map[int]int{}
				th := stm.NewThread(&stm.RealClock{}, 5)
				if err := th.Atomic(func(tx *stm.Tx) error {
					for _, k := range committed {
						tm.Put(tx, int(k), int(k))
						ref[int(k)] = int(k)
					}
					return nil
				}); err != nil {
					return false
				}
				probes := []int{math.MinInt8 - 1, math.MaxInt8 + 1}
				for _, b := range append([]int{math.MinInt8, math.MaxInt8}, tm.sorted.boundaries...) {
					probes = append(probes, b-1, b, b+1)
				}
				slices.Sort(probes)
				fail := func(format string, args ...any) {
					if mismatch == "" {
						mismatch = fmt.Sprintf(format, args...)
					}
				}
				if err := th.Atomic(func(tx *stm.Tx) error {
					for _, op := range ops {
						k, v := int(op.Key), int(op.Val)
						switch op.Kind % 5 {
						case 0:
							tm.Put(tx, k, v)
							ref[k] = v
						case 1:
							tm.Remove(tx, k)
							delete(ref, k)
						case 2:
							tm.Remove(tx, k)
							tm.Put(tx, k, v)
							ref[k] = v
						case 3:
							tm.PutUnread(tx, k, v)
							ref[k] = v
						default:
							tm.RemoveUnread(tx, k)
							delete(ref, k)
						}
					}
					want := slices.Sorted(maps.Keys(ref))
					var got []int
					tm.ForEach(tx, func(k, v int) bool {
						if v != ref[k] {
							fail("ForEach: %d => %d, want %d", k, v, ref[k])
						}
						got = append(got, k)
						return true
					})
					if !slices.Equal(got, want) {
						fail("ForEach keys %v, want %v", got, want)
					}
					check := func(name string, p int, k int, ok bool, d dir, strict bool) {
						if wk, wok := nearest(want, p, d, strict); k != wk || ok != wok {
							fail("%s(%d) = %d, %v; want %d, %v", name, p, k, ok, wk, wok)
						}
					}
					k, ok := tm.FirstKey(tx)
					check("FirstKey", probes[0], k, ok, up, false)
					k, ok = tm.LastKey(tx)
					check("LastKey", probes[len(probes)-1], k, ok, down, false)
					for i, p := range probes {
						k, ok = tm.CeilingKey(tx, p)
						check("CeilingKey", p, k, ok, up, false)
						k, ok = tm.HigherKey(tx, p)
						check("HigherKey", p, k, ok, up, true)
						k, ok = tm.FloorKey(tx, p)
						check("FloorKey", p, k, ok, down, false)
						k, ok = tm.LowerKey(tx, p)
						check("LowerKey", p, k, ok, down, true)
						if got, w := tm.HeadMap(p).Keys(tx), within(want, 0, p, false, true); !slices.Equal(got, w) {
							fail("HeadMap(%d) = %v, want %v", p, got, w)
						}
						if got, w := tm.TailMap(p).Keys(tx), within(want, p, 0, true, false); !slices.Equal(got, w) {
							fail("TailMap(%d) = %v, want %v", p, got, w)
						}
						for _, q := range probes[i:min(i+4, len(probes))] {
							if got, w := tm.SubMap(p, q).Keys(tx), within(want, p, q, true, true); !slices.Equal(got, w) {
								fail("SubMap(%d, %d) = %v, want %v", p, q, got, w)
							}
						}
					}
					return nil
				}); err != nil {
					fail("buffering transaction: %v", err)
				}
				return mismatch == ""
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatalf("%v\n%s", err, mismatch)
			}
		})
	}
}
