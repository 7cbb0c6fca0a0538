package stm

// White-box tests for the packed TL2 lockword: bit-budget packing,
// spin/bail behaviour of readers that observe a mid-install lock, and
// race soundness of the committed accessors against real committers.
// (The -race run of verify.sh is what gives the concurrent tests their
// teeth.)

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLockwordPacking pins the bit layout: 63-bit version, low lock
// bit, round-trip at the documented maximum. Version overflow needs
// 2^63 writing commits and is documented as unreachable in var.go; this
// test is the executable form of that bit budget.
func TestLockwordPacking(t *testing.T) {
	for _, ver := range []uint64{0, 1, 12345, maxVersion} {
		for _, locked := range []bool{false, true} {
			w := packWord(ver, locked)
			if wordVersion(w) != ver {
				t.Fatalf("packWord(%d, %v): version round-trips to %d", ver, locked, wordVersion(w))
			}
			if wordLocked(w) != locked {
				t.Fatalf("packWord(%d, %v): lock bit round-trips to %v", ver, locked, wordLocked(w))
			}
		}
	}
	if maxVersion != uint64(1)<<63-1 {
		t.Fatalf("version budget changed: maxVersion = %d", maxVersion)
	}
}

// TestLockwordAcquireRelease exercises the CAS acquire / side-slot
// owner / release protocol directly.
func TestLockwordAcquireRelease(t *testing.T) {
	c := newVarCore(7)
	h1, h2 := &Handle{}, &Handle{}
	if !c.tryLock(h1) {
		t.Fatal("tryLock on an unlocked core failed")
	}
	if !c.tryLock(h1) {
		t.Fatal("re-tryLock by the owner should succeed")
	}
	if c.tryLock(h2) {
		t.Fatal("tryLock by another handle succeeded while locked")
	}
	if ver, lockedByOther := c.peek(h1); ver != 0 || lockedByOther {
		t.Fatalf("owner peek = (%d, %v), want (0, false)", ver, lockedByOther)
	}
	if _, lockedByOther := c.peek(h2); !lockedByOther {
		t.Fatal("non-owner peek should report lockedByOther")
	}
	c.unlock()
	if ver, lockedByOther := c.peek(h2); ver != 0 || lockedByOther {
		t.Fatalf("post-unlock peek = (%d, %v), want (0, false)", ver, lockedByOther)
	}
	c.tryLock(h2)
	c.install(9, 42)
	if ver, lockedByOther := c.peek(h1); ver != 42 || lockedByOther {
		t.Fatalf("post-install peek = (%d, %v), want (42, false)", ver, lockedByOther)
	}
	if got := c.val.Load().val; got.(int) != 9 {
		t.Fatalf("post-install value = %v, want 9", got)
	}
}

// TestSampleBailsOnHeldLock is the deterministic half of the
// mid-install story: a reader that keeps observing a lockword held by
// another transaction must give up the attempt with a retry signal
// rather than spin forever.
func TestSampleBailsOnHeldLock(t *testing.T) {
	c := newVarCore(1)
	other := &Handle{}
	if !c.tryLock(other) {
		t.Fatal("setup lock failed")
	}
	th := NewThread(&RealClock{}, 1)
	tx := &Tx{thread: th, handle: &Handle{}}
	defer func() {
		r := recover()
		sig, ok := r.(*signal)
		if !ok || sig.kind != sigRetry {
			t.Fatalf("sample on a held lockword: recovered %v, want sigRetry", r)
		}
	}()
	c.sample(tx)
	t.Fatal("sample returned despite a held lock")
}

// TestSampleReadsOwnLockedVar: a core locked by the sampling
// transaction's own handle stays readable (owner side-slot check).
func TestSampleSelfOwned(t *testing.T) {
	c := newVarCore(5)
	th := NewThread(&RealClock{}, 1)
	tx := &Tx{thread: th, handle: &Handle{}}
	c.tryLock(tx.handle)
	box := c.sample(tx)
	if box.val.(int) != 5 || box.ver != 0 {
		t.Fatalf("self-owned sample = (%v, %d), want (5, 0)", box.val, box.ver)
	}
}

// TestSpinWaitsAreBudgeted keeps every in-attempt wait bounded: a
// spinWait call whose poll number is a literal never spends the budget,
// so it waits for as long as the other transaction holds the word.
func TestSpinWaitsAreBudgeted(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	calls := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "spinWait" {
				return true
			}
			calls++
			if _, lit := call.Args[1].(*ast.BasicLit); lit {
				t.Errorf("%s: spinWait with a literal poll number waits without bound", fset.Position(call.Pos()))
			}
			return true
		})
	}
	if calls == 0 {
		t.Fatal("no spinWait call found: the test has rotted")
	}
}

// TestReaderSpinsThroughInstall holds a var's lockword while a reader
// transaction is running, then completes the install: the reader must
// come back (spinning in its attempt or bailing into a fresh one) and
// observe exactly the installed value.
func TestReaderSpinsThroughInstall(t *testing.T) {
	v := NewVar(0)
	writer := &Handle{}
	if !v.core.tryLock(writer) {
		t.Fatal("setup lock failed")
	}
	got := make(chan int, 1)
	started := make(chan struct{})
	go func() {
		th := NewThread(&RealClock{}, 2)
		close(started)
		_ = th.Atomic(func(tx *Tx) error {
			got <- v.Get(tx)
			return nil
		})
	}()
	<-started
	time.Sleep(2 * time.Millisecond) // let the reader hit the held lockword
	v.core.install(77, globalClock.Add(1))
	select {
	case val := <-got:
		if val != 77 {
			t.Fatalf("reader observed %d through the install, want 77", val)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never finished after the lock was released")
	}
}

// TestCommittedAccessorsVsCommitters races GetCommitted/SetCommitted
// against committing transactions on the same vars. The assertions are
// deliberately weak (the committed accessors promise only an atomic,
// unordered snapshot); the value of the test is that -race proves the
// lockword protocol synchronizes the value boxes.
func TestCommittedAccessorsVsCommitters(t *testing.T) {
	v := NewVar(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := NewThread(&RealClock{}, seed)
			for i := 0; i < perWorker; i++ {
				_ = th.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				})
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			v.SetCommitted(-i)
			if v.GetCommitted() > 2*perWorker {
				t.Error("GetCommitted observed an impossible value")
				return
			}
		}
	}()
	wg.Wait()
	if got := v.GetCommitted(); got > 2*perWorker || got < -perWorker {
		t.Fatalf("final committed value %d outside every possible history", got)
	}
}

// TestInstallConsistencyStress is the torn-read stress: writers commit
// x and y together (invariant x == y), readers sample both in one
// transaction. A reader that paired a value box with the wrong lockword
// version — the failure the double word load in sample prevents — would
// observe x != y.
func TestInstallConsistencyStress(t *testing.T) {
	x := NewVar(0)
	y := NewVar(0)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			th := NewThread(&RealClock{}, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = th.Atomic(func(tx *Tx) error {
					n := x.Get(tx) + 1
					x.Set(tx, n)
					y.Set(tx, n)
					return nil
				})
			}
		}(int64(w + 10))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			th := NewThread(&RealClock{}, seed)
			for i := 0; i < 5000; i++ {
				var a, b int
				_ = th.Atomic(func(tx *Tx) error {
					a = x.Get(tx)
					b = y.Get(tx)
					return nil
				})
				if a != b {
					t.Errorf("torn read: x=%d y=%d inside one transaction", a, b)
					return
				}
			}
		}(int64(r + 20))
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
