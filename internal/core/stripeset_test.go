package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tcc/internal/collections"
	"tcc/internal/stm"
)

// takeable fails the test unless every locker can be taken, one after the
// other, before the deadline (see within): a guard somebody still holds
// blocks its taker for ever.
func takeable(t *testing.T, what string, lockers ...sync.Locker) {
	t.Helper()
	within(t, 2*time.Second, what, func() {
		for _, l := range lockers {
			l.Lock()
			l.Unlock()
		}
	})
}

func guardsOf(s *stripeSet) []sync.Locker {
	out := make([]sync.Locker, len(s.guards))
	for i, g := range s.guards {
		out[i] = g
	}
	return out
}

// probeClock is a stm.Clock that holds the callers of Tick and Wait to the
// Clock contract (never under a lock other workers share) for the
// instance under test: at each call every one of its guards must be free.
type probeClock struct {
	t       *testing.T
	lockers []sync.Locker
	calls   int
}

func (c *probeClock) Tick(uint64) { c.probe("Tick") }
func (c *probeClock) Wait(uint64) { c.probe("Wait") }
func (c *probeClock) Now() uint64 { return 0 }

func (c *probeClock) probe(what string) {
	c.calls++
	if c.t.Failed() {
		return // one report; a held guard would cost every later call its deadline
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, l := range c.lockers {
			l.Lock()
			l.Unlock()
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		c.t.Errorf("Clock.%s (call %d) with a guard of the instance held", what, c.calls)
	}
}

// TestSectionContract holds stripeSet's three helpers to what section's
// comment promises.
func TestSectionContract(t *testing.T) {
	// A panic in fn ends the hold, leaves the span in the footprint for
	// the abort handler that the rollback runs, and the thread as it was.
	t.Run("panic", func(t *testing.T) {
		for _, proto := range stm.Protocols() {
			t.Run(proto, func(t *testing.T) {
				s := newStripeSet(4)
				var f footprint
				var aborted, committed []uint64 // the footprint each handler met
				f.onAbort = func() { aborted = append(aborted, f.touched); f.h, f.touched = nil, 0 }
				f.onCommit = func() { committed = append(committed, f.touched); f.h, f.touched = nil, 0 }
				th := newTh(1)
				must(t, th.SetProtocol(proto))
				boom := errors.New("boom")
				var recovered any
				// The rollback takes the span's guards for the abort handler.
				within(t, 2*time.Second, "the rollback after a panic in section", func() {
					defer func() { recovered = recover() }()
					recovered = th.Atomic(func(tx *stm.Tx) error {
						s.section(tx, &f, 1, 3, DefaultOpCost, func() { panic(boom) })
						return nil
					})
				})
				if recovered != boom {
					t.Fatalf("recovered %v, want fn's own panic value", recovered)
				}
				if len(aborted) != 1 || aborted[0] != 0b0110 || len(committed) != 0 {
					t.Errorf("abort handler met footprints %b, commit handler %b; want one rollback over partitions 1 and 2", aborted, committed)
				}
				takeable(t, "the guards after a panic in section", guardsOf(&s)...)

				func() {
					defer func() { recovered = recover() }()
					s.held(0, 4, func() { panic(boom) })
				}()
				if recovered != boom {
					t.Fatalf("recovered %v from held, want fn's own panic value", recovered)
				}
				takeable(t, "the guards after a panic in held", guardsOf(&s)...)

				ran := false
				within(t, 2*time.Second, "the same thread's next transaction", func() {
					atomically(t, th, func(tx *stm.Tx) {
						s.section(tx, &f, 0, 4, DefaultOpCost, func() { ran = true })
					})
				})
				if !ran || len(committed) != 1 || committed[0] != 0b1111 || len(aborted) != 1 {
					t.Errorf("ran=%v, commit handler met %b, abort handler %b; want one commit over all four partitions", ran, committed, aborted)
				}
			})
		}
	})

	// The charge — every Clock call the operation or the STM under it
	// makes — finds the instance's guards free.
	t.Run("charge with the guards free", func(t *testing.T) {
		type instance struct {
			name    string
			lockers []sync.Locker
			// fill commits what the operations then meet; ops runs every
			// public operation, reads only those that stay on the snapshot
			// path inside AtomicRead (Get and ContainsKey).
			fill, ops, reads func(tx *stm.Tx)
		}
		fillMap := func(tm *TransactionalMap[int, int]) func(tx *stm.Tx) {
			return func(tx *stm.Tx) {
				for _, k := range []int{1, 2, 10, 20, 30, 40, 50, 60, 70} {
					tm.Put(tx, k, k)
				}
			}
		}
		mapOps := func(tm *TransactionalMap[int, int]) (ops, reads func(tx *stm.Tx)) {
			reads = func(tx *stm.Tx) {
				tm.Get(tx, 1)
				tm.ContainsKey(tx, 2)
				tm.GetOrDefault(tx, 99, 0)
			}
			ops = func(tx *stm.Tx) {
				tm.Put(tx, 40, 40)
				tm.PutUnread(tx, 41, 41)
				tm.PutAll(tx, map[int]int{42: 42, 43: 43})
				tm.Remove(tx, 1)
				tm.RemoveUnread(tx, 2)
				reads(tx)
				tm.Size(tx)
				tm.IsEmpty(tx)
				for it := tm.Iterator(tx); it.HasNext(); {
					it.Next()
				}
				tm.ForEach(tx, func(int, int) bool { return true })
				tm.Keys(tx)
				tm.Values(tx)
				tm.Entries(tx)
				tm.Clear(tx)
			}
			return ops, reads
		}
		sortedOps := func(m *TransactionalSortedMap[int, int]) (ops, reads func(tx *stm.Tx)) {
			mOps, mReads := mapOps(&m.TransactionalMap)
			nav := func(tx *stm.Tx) {
				m.FirstKey(tx)
				m.LastKey(tx)
				m.CeilingKey(tx, 25)
				m.HigherKey(tx, 30)
				m.FloorKey(tx, 25)
				m.LowerKey(tx, 10)
				m.CeilingKey(tx, 1000)
			}
			ops = func(tx *stm.Tx) {
				nav(tx)
				for it := m.Iterator(tx); it.HasNext(); {
					it.Next()
				}
				m.ForEach(tx, func(int, int) bool { return true })
				m.Keys(tx)
				for _, v := range []SortedView[int, int]{m.SubMap(15, 55), m.HeadMap(45), m.TailMap(25)} {
					v.Get(tx, 30)
					v.ContainsKey(tx, 30)
					v.Put(tx, 31, 31)
					v.Remove(tx, 31)
					for it := v.Iterator(tx); it.HasNext(); {
						it.Next()
					}
					v.ForEach(tx, func(int, int) bool { return true })
					v.Keys(tx)
				}
				mOps(tx)
				nav(tx) // once more, over the buffered removals
			}
			return ops, mReads
		}
		queueOps := func(tq *TransactionalQueue[int]) func(tx *stm.Tx) {
			return func(tx *stm.Tx) {
				tq.Peek(tx)
				tq.Poll(tx)
				tq.Take(tx)
				tq.Put(tx, 7)
				tq.PutLane(tx, 3, 8)
				tq.Offer(tx, 9)
				for i := 0; i < 8; i++ { // past the elements left, into emptiness
					tq.Poll(tx)
				}
				tq.Peek(tx)
			}
		}

		var instances []func() instance
		for _, stripes := range []int{1, 16} {
			instances = append(instances, func() instance {
				tm := NewStripedTransactionalMap(func() collections.Map[int, int] {
					return collections.NewHashMap[int, int]()
				}, stripes)
				ops, reads := mapOps(tm)
				return instance{fmt.Sprintf("Map/%d stripes", stripes), guardsOf(&tm.stripeSet), fillMap(tm), ops, reads}
			})
		}
		for _, boundaries := range [][]int{nil, {10, 20, 30, 40, 50, 60, 70}} {
			instances = append(instances, func() instance {
				m := NewRangeStripedTransactionalSortedMap(newIntTree, boundaries)
				ops, reads := sortedOps(m)
				return instance{fmt.Sprintf("SortedMap/%d range stripes", m.Stripes()), guardsOf(&m.stripeSet), fillMap(&m.TransactionalMap), ops, reads}
			})
		}
		for _, lanes := range []int{1, 4} {
			instances = append(instances, func() instance {
				tq := NewSegmentedTransactionalQueue(func() collections.Queue[int] {
					return collections.NewLinkedQueue[int]()
				}, lanes)
				fill := func(tx *stm.Tx) {
					for li := 0; li < 6; li++ {
						tq.PutLane(tx, li, li)
					}
				}
				return instance{fmt.Sprintf("Queue/%d lanes", lanes), guardsOf(&tq.stripeSet), fill, queueOps(tq), nil}
			})
		}
		instances = append(instances, func() instance {
			c := NewCounter(0)
			return instance{"Counter", []sync.Locker{c.guard}, nil, func(tx *stm.Tx) { c.Add(tx, 2); c.Get(tx) }, nil}
		}, func() instance {
			g := NewUIDGen(1)
			return instance{"UIDGen", []sync.Locker{&g.mu}, nil, func(tx *stm.Tx) { g.Next(tx); g.Current(tx) }, nil}
		})

		for _, build := range instances {
			for _, mode := range []string{"Atomic", "AtomicRead", "AtomicRead reads"} {
				in := build()
				if mode == "AtomicRead reads" && in.reads == nil {
					continue
				}
				t.Run(in.name+"/"+mode, func(t *testing.T) {
					clock := &probeClock{t: t, lockers: in.lockers}
					th := stm.NewThread(clock, 1)
					if in.fill != nil {
						atomically(t, th, in.fill)
					}
					clock.calls = 0
					body, run := in.ops, th.Atomic
					switch mode {
					case "AtomicRead":
						run = th.AtomicRead // the first touch falls back to the retry path
					case "AtomicRead reads":
						body, run = in.reads, th.AtomicRead
					}
					must(t, run(func(tx *stm.Tx) error {
						body(tx)
						return nil
					}))
					if clock.calls == 0 {
						t.Error("the operations made no Clock call: nothing was probed")
					}
					takeable(t, "the guards after the transaction", in.lockers...)
				})
			}
		}
	})

	// lockSpan takes the span's guards in ascending ID order: blocked on
	// guard j it holds none above j, whatever (lo, hi).
	t.Run("ascending order", func(t *testing.T) {
		for _, n := range []int{1, 2, 16, maxStripes} {
			s := newStripeSet(n)
			for i := 1; i < n; i++ {
				if s.guards[i-1].ID() >= s.guards[i].ID() {
					t.Fatalf("%d partitions: guard %d has ID %d, guard %d has %d", n, i-1, s.guards[i-1].ID(), i, s.guards[i].ID())
				}
			}
		}
		const n = 4
		s := newStripeSet(n)
		all := guardsOf(&s)
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				for j := lo; j < hi; j++ {
					what := fmt.Sprintf("lockSpan(%d, %d) against a holder of guard %d", lo, hi, j)
					s.guards[j].Lock()
					arrived, locked, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
					go func() {
						close(arrived)
						s.lockSpan(lo, hi)
						close(locked)
						<-release
						s.unlockSpan(lo, hi)
					}()
					<-arrived
					time.Sleep(time.Millisecond) // let it reach guard j
					takeable(t, what+": the guards above it", all[j+1:]...)
					s.guards[j].Unlock()
					within(t, 2*time.Second, what, func() { <-locked })
					takeable(t, what+": the guards outside the span", append(all[:lo:lo], all[hi:]...)...)
					close(release)
					takeable(t, what+": every guard once it is released", all...)
				}
			}
		}
	})
}

// TestOneOpenSection keeps the next hand-assembled copy of the open section
// from growing back: outside their one home, the package's non-test files
// neither call tx.Open, nor name the span sweep, nor lock a mutex — a guard
// (the lock-table methods all take arguments; Lock() and Unlock() do not).
// Nor does a snapshot-mode answer grow back beside its retry-path twin:
// TransactionalMap.Get is the one branch on IsSnapshot.
func TestOneOpenSection(t *testing.T) {
	files, err := filepath.Glob("*.go")
	must(t, err)
	fset := token.NewFileSet()
	opens, snapshots := 0, 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if name == "snapshot.go" {
			t.Errorf("%s exists; a snapshot answer lives on the operation it answers", name)
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		must(t, err)
		var fn *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			at := func() token.Position { return fset.Position(n.Pos()) }
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = n
			case *ast.Ident:
				if (n.Name == "lockSpan" || n.Name == "unlockSpan") && name != "stripeset.go" {
					t.Errorf("%s: %s outside stripeset.go; hold guards through stripeSet.held", at(), n.Name)
				}
				if n.Name == "IsSnapshot" {
					snapshots++
					if name != "map.go" || fn == nil || fn.Name.Name != "Get" {
						t.Errorf("%s: IsSnapshot outside TransactionalMap.Get; only Get has a snapshot answer", at())
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case sel.Sel.Name == "Open":
					opens++
					if name != "stripeset.go" {
						t.Errorf("%s: an Open call outside stripeset.go; enter through section or open", at())
					}
				case (sel.Sel.Name == "Lock" || sel.Sel.Name == "Unlock") && len(n.Args) == 0 &&
					name != "stripeset.go" && name != "counter.go":
					t.Errorf("%s: a guard taken by hand; hold guards through stripeSet.held", at())
				}
			}
			return true
		})
	}
	if opens != 1 {
		t.Errorf("%d Open calls in the package, want the one in open", opens)
	}
	if snapshots != 1 {
		t.Errorf("%d IsSnapshot references in the package, want the one in TransactionalMap.Get", snapshots)
	}
}
