package stm

// Protocol conformance suite: every concurrency-control
// protocol must pass the same serializability matrix — interleaved
// cuts, torn-pair stress (run under -race by verify.sh), write skew,
// nesting, open nesting, violations, and the snapshot-path fallbacks.
// The suite iterates Protocols(), so a newly listed protocol gets
// this coverage for free (and fails loudly until it earns it).

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// protoThread returns a worker on the real clock running the named
// protocol.
func protoThread(t testing.TB, name string, seed int64) *Thread {
	t.Helper()
	th := NewThread(&RealClock{}, seed)
	if err := th.SetProtocol(name); err != nil {
		t.Fatal(err)
	}
	return th
}

func TestProtocolRegistry(t *testing.T) {
	if got, want := Protocols(), []string{"tl2", "norec", "tl2-eager"}; !slices.Equal(got, want) {
		t.Fatalf("Protocols() = %v, want %v", got, want)
	}
	th := newTestThread()
	if th.Protocol() != "tl2" {
		t.Fatalf("new thread protocol = %q, want tl2", th.Protocol())
	}
	if th.Stats.Protocol != "tl2" {
		t.Fatalf("Stats.Protocol = %q, want tl2", th.Stats.Protocol)
	}
	if err := th.SetProtocol("no-such-protocol"); err == nil {
		t.Fatal("SetProtocol of unknown name did not error")
	}
	if err := th.SetProtocol("norec"); err != nil {
		t.Fatal(err)
	}
	if th.Protocol() != "norec" || th.Stats.Protocol != "norec" {
		t.Fatalf("after switch: Protocol()=%q Stats.Protocol=%q", th.Protocol(), th.Stats.Protocol)
	}
}

func TestSetProtocolInsideTxPanics(t *testing.T) {
	th := newTestThread()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from SetProtocol inside a transaction")
		}
	}()
	_ = th.Atomic(func(tx *Tx) error {
		return th.SetProtocol("norec")
	})
}

func TestStatsProtocolMerge(t *testing.T) {
	var s Stats
	s.Add(Stats{Protocol: "tl2", Commits: 1})
	s.Add(Stats{Protocol: "tl2", Commits: 1})
	if s.Protocol != "tl2" {
		t.Fatalf("same-protocol merge = %q, want tl2", s.Protocol)
	}
	s.Add(Stats{Protocol: "norec"})
	if s.Protocol != "mixed" {
		t.Fatalf("cross-protocol merge = %q, want mixed", s.Protocol)
	}
}

// TestProtocolConformance runs the serializability matrix against every
// registered protocol.
func TestProtocolConformance(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, proto string)
	}{
		{"ReadWriteCommit", confReadWriteCommit},
		{"AbortDiscardsWrites", confAbortDiscards},
		{"CounterRace", confCounterRace},
		{"InterleavedCuts", confInterleavedCuts},
		{"TornPairStress", confTornPair},
		{"WriteSkewPrevented", confWriteSkew},
		{"ReadExtension", confReadExtension},
		{"ConflictingReadAborts", confConflictingRead},
		{"NestedPartialAbort", confNestedPartialAbort},
		{"OpenNesting", confOpenNesting},
		{"OpenIsolation", confOpenIsolation},
		{"Violation", confViolation},
		{"SnapshotRead", confSnapshotRead},
		{"SnapshotFallback", confSnapshotFallback},
	}
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) { sc.run(t, proto) })
			}
		})
	}
}

func confReadWriteCommit(t *testing.T, proto string) {
	v := NewVar("a")
	th := protoThread(t, proto, 1)
	err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, "b")
		if got := v.Get(tx); got != "b" {
			t.Fatalf("read own write = %q, want b", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != "b" {
		t.Fatalf("committed = %q, want b", got)
	}
	if th.Stats.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", th.Stats.Commits)
	}
}

func confAbortDiscards(t *testing.T, proto string) {
	v := NewVar(1)
	th := protoThread(t, proto, 1)
	wantErr := errors.New("rollback")
	if err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 99)
		return wantErr
	}); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if got := v.GetCommitted(); got != 1 {
		t.Fatalf("committed = %d, want 1 (write must be discarded)", got)
	}
	// The write lock (if the protocol took one at Set) must be gone:
	// another worker on the same protocol commits without interference.
	th2 := protoThread(t, proto, 2)
	if err := th2.Atomic(func(tx *Tx) error {
		v.Set(tx, v.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != 2 {
		t.Fatalf("committed after release = %d, want 2", got)
	}
}

func confCounterRace(t *testing.T, proto string) {
	const workers, perWorker = 6, 150
	v := NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := protoThread(t, proto, seed)
			for i := 0; i < perWorker; i++ {
				if err := th.Atomic(func(tx *Tx) error {
					v.Set(tx, v.Get(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := v.GetCommitted(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*perWorker)
	}
}

// confInterleavedCuts is the bank-transfer invariant: concurrent
// transfers conserve the total, and concurrent checker transactions
// must only ever observe serializable cuts (the full total).
func confInterleavedCuts(t *testing.T, proto string) {
	const accounts, perAccount = 6, 1000
	const transfers, checks = 150, 150
	vars := make([]*Var[int], accounts)
	for i := range vars {
		vars[i] = NewVar(perAccount)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := protoThread(t, proto, 11)
		for i := 0; i < transfers; i++ {
			from, to := i%accounts, (i+3)%accounts
			if err := th.Atomic(func(tx *Tx) error {
				amt := 1 + i%7
				vars[from].Set(tx, vars[from].Get(tx)-amt)
				vars[to].Set(tx, vars[to].Get(tx)+amt)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		th := protoThread(t, proto, 12)
		for i := 0; i < checks; i++ {
			var sum int
			if err := th.Atomic(func(tx *Tx) error {
				sum = 0
				for _, v := range vars {
					sum += v.Get(tx)
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if sum != accounts*perAccount {
				t.Errorf("checker saw torn cut: total = %d, want %d", sum, accounts*perAccount)
				return
			}
		}
	}()
	wg.Wait()
}

// confTornPair writes (i, -i) pairs from several writers while readers
// assert x == -y — the pairing that a torn (non-atomic) commit or an
// unsynchronized read would break, and the scenario verify.sh runs
// under the race detector.
func confTornPair(t *testing.T, proto string) {
	x, y := NewVar(0), NewVar(0)
	const writers, readers, rounds = 3, 3, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := protoThread(t, proto, seed)
			for i := 1; i <= rounds; i++ {
				if err := th.Atomic(func(tx *Tx) error {
					x.Set(tx, i)
					y.Set(tx, -i)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(20 + w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := protoThread(t, proto, seed)
			for i := 0; i < rounds; i++ {
				var gx, gy int
				if err := th.Atomic(func(tx *Tx) error {
					gx, gy = x.Get(tx), y.Get(tx)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if gx != -gy {
					t.Errorf("torn pair: x=%d y=%d", gx, gy)
					return
				}
			}
		}(int64(30 + r))
	}
	wg.Wait()
}

func confWriteSkew(t *testing.T, proto string) {
	const rounds = 60
	for r := 0; r < rounds; r++ {
		a, b := NewVar(1), NewVar(1)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := protoThread(t, proto, int64(w))
				_ = th.Atomic(func(tx *Tx) error {
					sum := a.Get(tx) + b.Get(tx)
					if sum < 2 {
						return nil
					}
					if w == 0 {
						a.Set(tx, a.Get(tx)-2)
					} else {
						b.Set(tx, b.Get(tx)-2)
					}
					return nil
				})
			}(w)
		}
		wg.Wait()
		if a.GetCommitted()+b.GetCommitted() < 0 {
			t.Fatalf("write skew: a=%d b=%d", a.GetCommitted(), b.GetCommitted())
		}
	}
}

// confReadExtension: tx1 reads a, tx2 commits a change to b, tx1 reads
// b — the read point must extend past tx2's commit without restarting
// tx1 (its only recorded read is still valid).
func confReadExtension(t *testing.T, proto string) {
	a, b := NewVar(1), NewVar(2)
	th1, th2 := protoThread(t, proto, 1), protoThread(t, proto, 2)
	err := th1.Atomic(func(tx *Tx) error {
		_ = a.Get(tx)
		if tx.Attempt() == 0 {
			if err := th2.Atomic(func(tx2 *Tx) error {
				b.Set(tx2, 20)
				return nil
			}); err != nil {
				return err
			}
		}
		if got := b.Get(tx); got != 20 {
			t.Fatalf("read of b = %d, want 20", got)
		}
		if tx.Attempt() != 0 {
			t.Fatal("transaction restarted despite valid extension")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// confConflictingRead: tx1 reads a and writes b; tx2 changes a before
// tx1 commits. tx1 must restart and see the new value.
func confConflictingRead(t *testing.T, proto string) {
	a, b := NewVar(1), NewVar(2)
	th1, th2 := protoThread(t, proto, 1), protoThread(t, proto, 2)
	sawOld, sawNew := false, false
	err := th1.Atomic(func(tx *Tx) error {
		got := a.Get(tx)
		if got == 1 {
			sawOld = true
		}
		if got == 10 {
			sawNew = true
		}
		b.Set(tx, got*2)
		if tx.Attempt() == 0 {
			if err := th2.Atomic(func(tx2 *Tx) error {
				a.Set(tx2, 10)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawOld || !sawNew {
		t.Fatalf("sawOld=%v sawNew=%v, want both (abort + consistent retry)", sawOld, sawNew)
	}
	if th1.Stats.Aborts == 0 {
		t.Fatal("expected at least one abort")
	}
	if got := b.GetCommitted(); got != 20 {
		t.Fatalf("b = %d, want 20 (written from the consistent retry)", got)
	}
}

func confNestedPartialAbort(t *testing.T, proto string) {
	v, w := NewVar(1), NewVar(1)
	th := protoThread(t, proto, 1)
	childErr := errors.New("child abort")
	err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 2)
		if err := tx.Nested(func() error {
			w.Set(tx, 99)
			return childErr
		}); err != childErr {
			t.Fatalf("nested err = %v, want %v", err, childErr)
		}
		// The child's write is gone; the parent's survives.
		if got := w.Get(tx); got != 1 {
			t.Fatalf("w inside parent after child abort = %d, want 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.GetCommitted() != 2 || w.GetCommitted() != 1 {
		t.Fatalf("committed v=%d w=%d, want 2, 1", v.GetCommitted(), w.GetCommitted())
	}
}

func confOpenNesting(t *testing.T, proto string) {
	v := NewVar(0)
	th := protoThread(t, proto, 1)
	published, compensated := 0, false
	wantErr := errors.New("parent rolls back")
	err := th.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			published++
			o.OnAbortGuarded(testGuard, func() { compensated = true })
			return nil
		}); err != nil {
			return err
		}
		// The body's own Vars work again once the section has returned.
		v.Set(tx, v.Get(tx)+1)
		return wantErr
	})
	if err != wantErr {
		t.Fatal(err)
	}
	if published != 1 {
		t.Fatalf("open section ran %d times, want once", published)
	}
	if !compensated {
		t.Fatal("abort handler from the open section did not run on parent rollback")
	}
	if v.GetCommitted() != 0 {
		t.Fatal("parent write survived rollback")
	}
}

// confOpenIsolation pins what separates an open-nested section from the
// levels around it: a handler it registers belongs to the level Open was
// called in, however the calls nest, and a section that returns an error
// leaves nothing of its own behind and nothing of the parent's released.
func confOpenIsolation(t *testing.T, proto string) {
	th := protoThread(t, proto, 1)
	childErr := errors.New("child abort")

	// Handlers: Open inside Nested inside Open. The innermost section's
	// abort handler attaches to the Nested level, whose rollback runs it — once,
	// whatever is rolled back afterwards.
	compensated := 0
	wantErr := errors.New("parent rolls back")
	if err := th.Atomic(func(tx *Tx) error {
		if err := tx.Open(func(o *Tx) error {
			if err := o.Nested(func() error {
				if err := o.Open(func(o2 *Tx) error {
					o2.OnAbortGuarded(testGuard, func() { compensated++ })
					return nil
				}); err != nil {
					return err
				}
				return childErr
			}); err != childErr {
				t.Errorf("nested err = %v, want %v", err, childErr)
			}
			if compensated != 1 {
				t.Errorf("abort handler ran %d times at the rollback of the Nested level it attached to, want once", compensated)
			}
			return nil
		}); err != nil {
			return err
		}
		return wantErr
	}); err != wantErr {
		t.Fatal(err)
	}
	if compensated != 1 {
		t.Errorf("abort handler ran %d times in all, want once", compensated)
	}

	// Protocol state: a section that returns an error leaves nothing of
	// its own behind and nothing of the parent's released.
	p := NewVar(0)
	dropped := false
	if err := th.Atomic(func(tx *Tx) error {
		p.Set(tx, 1)
		if err := tx.Open(func(o *Tx) error {
			o.OnAbortGuarded(testGuard, func() { dropped = true })
			return childErr
		}); err != childErr {
			t.Errorf("open err = %v, want %v", err, childErr)
		}
		if proto == "tl2-eager" && (!wordLocked(p.core.word.Load()) || p.core.owner.Load() != tx.handle) {
			t.Errorf("a lockword the parent took was released by its section's error")
		}
		return wantErr
	}); err != wantErr {
		t.Fatal(err)
	}
	if dropped {
		t.Errorf("the rollback ran an abort handler of a section that returned an error")
	}
	if p.GetCommitted() != 0 || wordLocked(p.core.word.Load()) {
		t.Errorf("committed p=%d, locked=%v; want 0, unlocked", p.GetCommitted(), wordLocked(p.core.word.Load()))
	}
}

func confViolation(t *testing.T, proto string) {
	th := protoThread(t, proto, 1)
	var victim *Handle
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		th2 := protoThread(t, proto, 2)
		done <- th2.Atomic(func(tx *Tx) error {
			if tx.Attempt() == 0 {
				victim = tx.Handle()
				close(started)
				<-release
				tx.Poll()
				t.Error("victim survived Poll after violation")
			}
			return nil
		})
	}()
	<-started
	if !victim.Violate(NewReason("conformance conflict")) {
		t.Fatal("Violate of active tx returned false")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = th
}

func confSnapshotRead(t *testing.T, proto string) {
	a, b := NewVar(10), NewVar(20)
	th := protoThread(t, proto, 1)
	var sum int
	if err := th.AtomicRead(func(tx *Tx) error {
		if !tx.IsSnapshot() {
			t.Fatal("AtomicRead not in snapshot mode")
		}
		sum = a.Get(tx) + b.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 30 {
		t.Fatalf("sum = %d, want 30", sum)
	}
	if th.Stats.SnapshotCommits != 1 {
		t.Fatalf("SnapshotCommits = %d, want 1", th.Stats.SnapshotCommits)
	}
}

func confSnapshotFallback(t *testing.T, proto string) {
	v := NewVar(5)
	th := protoThread(t, proto, 1)
	if err := th.AtomicRead(func(tx *Tx) error {
		v.Set(tx, v.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != 6 {
		t.Fatalf("committed = %d, want 6 (fallback must honor the write)", got)
	}
	if th.Stats.SnapshotFallbacks == 0 {
		t.Fatal("writing AtomicRead did not count a snapshot fallback")
	}
}

// TestEagerLockLifecycle (white-box) pins the encounter-time variant's
// defining behaviour: the lockword is owned from Set until commit or
// rollback, and released on both.
func TestEagerLockLifecycle(t *testing.T) {
	v := NewVar(1)
	th := protoThread(t, "tl2-eager", 1)
	if err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 2)
		if w := v.core.word.Load(); !wordLocked(w) {
			t.Fatal("lockword not held after Set under tl2-eager")
		}
		if v.core.owner.Load() != tx.handle {
			t.Fatal("lockword owner is not the writing transaction")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if w := v.core.word.Load(); wordLocked(w) {
		t.Fatal("lockword still held after commit")
	}
	wantErr := errors.New("abort")
	if err := th.Atomic(func(tx *Tx) error {
		v.Set(tx, 3)
		return wantErr
	}); err != wantErr {
		t.Fatal(err)
	}
	if w := v.core.word.Load(); wordLocked(w) {
		t.Fatal("lockword still held after rollback")
	}
	if got := v.GetCommitted(); got != 2 {
		t.Fatalf("committed = %d, want 2", got)
	}
}

// TestEagerWriteWriteConflict: a second writer hitting a Set-held
// lockword must abort at the write (encounter time), not at commit,
// and succeed once the holder finishes.
func TestEagerWriteWriteConflict(t *testing.T) {
	v := NewVar(0)
	holderIn := make(chan struct{})
	holderGo := make(chan struct{})
	done := make(chan error)
	go func() {
		th := protoThread(t, "tl2-eager", 1)
		done <- th.Atomic(func(tx *Tx) error {
			if tx.Attempt() == 0 {
				v.Set(tx, 1)
				close(holderIn)
				<-holderGo
			} else {
				v.Set(tx, 1)
			}
			return nil
		})
	}()
	<-holderIn
	th2 := protoThread(t, "tl2-eager", 2)
	var sawConflict bool
	err := th2.Atomic(func(tx *Tx) error {
		if tx.Attempt() == 0 {
			defer close(holderGo)
		}
		v.Set(tx, 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sawConflict = th2.Stats.Aborts > 0
	if !sawConflict {
		t.Fatal("second writer never observed the encounter-time conflict")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != 1 && got != 2 {
		t.Fatalf("committed = %d, want a serial outcome (1 or 2)", got)
	}
}

// TestEagerNestedPartialRelease: aborting a closed-nested child under
// tl2-eager releases only the child's fresh acquisitions — a variable
// also written by the parent stays locked and commits.
func TestEagerNestedPartialRelease(t *testing.T) {
	p, c := NewVar(0), NewVar(0)
	th := protoThread(t, "tl2-eager", 1)
	childErr := errors.New("child abort")
	if err := th.Atomic(func(tx *Tx) error {
		p.Set(tx, 1)
		if err := tx.Nested(func() error {
			c.Set(tx, 1)
			p.Set(tx, 2) // already held by the parent level
			return childErr
		}); err != childErr {
			t.Fatalf("nested err = %v", err)
		}
		if w := c.core.word.Load(); wordLocked(w) {
			t.Fatal("child-only lock not released by partial rollback")
		}
		if w := p.core.word.Load(); !wordLocked(w) || p.core.owner.Load() != tx.handle {
			t.Fatal("parent-held lock lost in partial rollback")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p.GetCommitted() != 1 || c.GetCommitted() != 0 {
		t.Fatalf("committed p=%d c=%d, want 1, 0", p.GetCommitted(), c.GetCommitted())
	}
}

// TestNOrecSilentRestoreValidates pins NOrec's defining advantage over
// version validation: a concurrent commit that re-stores the value a
// reader observed does not invalidate the reader, because validation
// compares values, not versions.
func TestNOrecSilentRestoreValidates(t *testing.T) {
	x, y := NewVar(7), NewVar(0)
	reader := protoThread(t, "norec", 1)
	writer := protoThread(t, "norec", 2)
	err := reader.Atomic(func(tx *Tx) error {
		if got := x.Get(tx); got != 7 {
			t.Fatalf("x = %d, want 7", got)
		}
		if tx.Attempt() == 0 {
			// A commit that bumps the sequence lock but re-stores x's
			// observed value. Version validation would now abort the
			// reader; value validation must not.
			if err := writer.Atomic(func(w *Tx) error {
				x.Set(w, 7)
				y.Set(w, 1)
				return nil
			}); err != nil {
				return err
			}
		}
		_ = y.Get(tx) // forces validation against the moved sequence
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reader.Stats.Aborts != 0 {
		t.Fatalf("reader aborted %d times; silent re-store must validate", reader.Stats.Aborts)
	}
	if reader.Stats.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", reader.Stats.Commits)
	}
}

// TestNOrecSequenceLockShape (white-box): the sequence lock is even at
// rest and advances by exactly 2 per writing commit; read-only commits
// leave it untouched.
func TestNOrecSequenceLockShape(t *testing.T) {
	th := protoThread(t, "norec", 1)
	v := NewVar(0)
	before := norecSeq.Load()
	if before&1 != 0 {
		t.Fatalf("sequence lock odd (%d) at rest", before)
	}
	for i := 0; i < 3; i++ {
		if err := th.Atomic(func(tx *Tx) error {
			v.Set(tx, v.Get(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	after := norecSeq.Load()
	if after != before+6 {
		t.Fatalf("sequence moved %d→%d, want +2 per writing commit (+6)", before, after)
	}
	if err := th.Atomic(func(tx *Tx) error {
		_ = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := norecSeq.Load(); got != after {
		t.Fatalf("read-only commit moved the sequence lock %d→%d", after, got)
	}
}

// TestNOrecWaitsAreBounded: a committer stalled on the sequence lock
// holds no NOrec attempt forever. begin adopts the sequence without
// waiting, a read's extension gives up after the spinWait budget and the
// attempt retries; once the committer is gone the transaction commits.
// Not parallel: it holds the process-wide sequence lock.
func TestNOrecWaitsAreBounded(t *testing.T) {
	th := protoThread(t, "norec", 1)
	v := NewVar(1)
	if norecSeq.Load()&1 != 0 {
		t.Fatal("sequence lock odd at rest")
	}
	norecSeq.Add(1) // a committer stalled inside its window
	var entered atomic.Int64
	again := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- th.Atomic(func(tx *Tx) error {
			if entered.Add(1) == 2 {
				close(again)
			}
			_ = v.Get(tx)
			return nil
		})
	}()
	select {
	case <-again:
	case <-time.After(5 * time.Second):
	}
	n := entered.Load()
	norecSeq.Add(^uint64(0)) // the committer gives up
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("body entered %d times in 5s under a held sequence lock, want at least 2", n)
	}
	if th.Stats.Aborts < 1 {
		t.Fatalf("Aborts = %d, want at least 1", th.Stats.Aborts)
	}
}

// TestNOrecNestedRetryReportsViolation: a violation that lands while a
// nested retry waits out a held sequence lock ends the attempt as a
// violation, not as an abort, once the extension runs out of budget.
// Not parallel: it holds the process-wide sequence lock.
func TestNOrecNestedRetryReportsViolation(t *testing.T) {
	th := protoThread(t, "norec", 1)
	v := NewVar(1)
	if norecSeq.Load()&1 != 0 {
		t.Fatal("sequence lock odd at rest")
	}
	held := false
	release := func() {
		if held {
			norecSeq.Add(^uint64(0)) // the committer gives up
			held = false
		}
	}
	t.Cleanup(release)
	MustAtomicT(t, th, func(tx *Tx) error {
		release()
		if tx.Attempt() > 0 {
			return nil
		}
		return tx.Nested(func() error {
			_ = v.Get(tx)
			norecSeq.Add(1) // a committer stalled inside its window
			held = true
			tx.handle.Violate(NewReason("violated during the wait"))
			tx.bail(sigRetry, "stale read")
			return nil
		})
	})
	if th.Stats.NestedRetries != 1 || th.Stats.Violations != 1 || th.Stats.Aborts != 0 {
		t.Fatalf("NestedRetries, Violations, Aborts = %d, %d, %d, want 1, 1, 0",
			th.Stats.NestedRetries, th.Stats.Violations, th.Stats.Aborts)
	}
}
