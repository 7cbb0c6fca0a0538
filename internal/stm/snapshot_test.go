package stm

// Tests for the MVCC-lite snapshot read path (Thread.AtomicRead,
// varCore.readAt): invisible-read serializability,
// non-blocking progress against continuous writers, lap-detection
// fallback, and torn-snapshot freedom under the race detector.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"tcc/internal/obs"
)

func newSnapThread(seed int64) *Thread { return NewThread(&RealClock{}, seed) }

// TestReadAtHistoryChain exercises varCore.readAt directly: one retained
// prior box serves readers one commit behind; two commits past the read
// version report shallow history rather than a wrong value.
func TestReadAtHistoryChain(t *testing.T) {
	c := newVarCore(10)
	clock := &RealClock{}
	rv := globalClock.Load()
	if v, ok := c.readAt(clock, rv); !ok || v.(int) != 10 {
		t.Fatalf("readAt on fresh var = (%v, %v), want (10, true)", v, ok)
	}

	h := &Handle{}
	c.tryLock(h)
	c.install(20, globalClock.Add(1))
	// One commit past rv: the prior box still serves the old version.
	if v, ok := c.readAt(clock, rv); !ok || v.(int) != 10 {
		t.Fatalf("readAt one commit behind = (%v, %v), want (10, true)", v, ok)
	}
	// The new version is visible to a reader at the new clock.
	if v, ok := c.readAt(clock, globalClock.Load()); !ok || v.(int) != 20 {
		t.Fatalf("readAt at head = (%v, %v), want (20, true)", v, ok)
	}

	c.tryLock(h)
	c.install(30, globalClock.Add(1))
	// Two commits past rv: history was truncated, the reader is lapped.
	if _, ok := c.readAt(clock, rv); ok {
		t.Fatal("readAt two commits behind reported ok; want shallow-history failure")
	}
}

// TestReadAtGivesUpOnHeldLock: a committer parked on the lockword makes
// readAt report failure after its spin budget instead of spinning
// forever (the snapshot loop then resamples or falls back).
func TestReadAtGivesUpOnHeldLock(t *testing.T) {
	c := newVarCore(1)
	c.tryLock(&Handle{})
	if _, ok := c.readAt(&RealClock{}, globalClock.Load()); ok {
		t.Fatal("readAt returned ok despite a held lockword")
	}
}

// TestAtomicReadBasic: committed values are visible, the snapshot
// commit is counted, and no ordinary commit machinery ran.
func TestAtomicReadBasic(t *testing.T) {
	v := NewVar(41)
	v.SetCommitted(42)
	th := newSnapThread(1)
	var got int
	if err := th.AtomicRead(func(tx *Tx) error {
		if !tx.IsSnapshot() {
			t.Error("AtomicRead body does not report IsSnapshot")
		}
		got = v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("AtomicRead saw %d, want 42", got)
	}
	if th.Stats.Commits != 1 || th.Stats.SnapshotCommits != 1 || th.Stats.SnapshotFallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 commit, 1 snapshot commit, 0 fallbacks", th.Stats)
	}
}

// TestAtomicReadErrorReturn: a body error is returned without retrying,
// like Atomic, and counted as a user abort.
func TestAtomicReadErrorReturn(t *testing.T) {
	v := NewVar(1)
	th := newSnapThread(1)
	want := errors.New("nope")
	runs := 0
	if err := th.AtomicRead(func(tx *Tx) error {
		runs++
		v.Get(tx)
		return want
	}); err != want {
		t.Fatalf("AtomicRead error = %v, want %v", err, want)
	}
	if runs != 1 {
		t.Fatalf("body ran %d times, want 1", runs)
	}
	if th.Stats.UserAborts != 1 || th.Stats.Commits != 0 {
		t.Fatalf("stats = %+v, want 1 user abort, 0 commits", th.Stats)
	}
}

// TestAtomicReadSerializableCut is the invisible-read serializability
// proof: a snapshot reader parked between its two reads must not see a
// writer's commit that lands in the gap — it returns the consistent
// pre-commit pair, with zero retries and zero aborts on either side.
// The retry path would also stay consistent, but only by aborting and
// re-running; the snapshot path must do it without the writer or the
// reader losing any work.
func TestAtomicReadSerializableCut(t *testing.T) {
	a := NewVar(0)
	b := NewVar(0)
	reader := newSnapThread(1)
	writer := newSnapThread(2)

	readA := make(chan struct{})
	wrote := make(chan struct{})
	var gotA, gotB int
	done := make(chan error, 1)
	go func() {
		done <- reader.AtomicRead(func(tx *Tx) error {
			gotA = a.Get(tx)
			readA <- struct{}{}
			<-wrote
			gotB = b.Get(tx)
			return nil
		})
	}()
	<-readA
	if err := writer.Atomic(func(tx *Tx) error {
		a.Set(tx, 1)
		b.Set(tx, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(wrote)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gotA != 0 || gotB != 0 {
		t.Fatalf("snapshot saw (%d, %d) across a concurrent commit, want the consistent cut (0, 0)", gotA, gotB)
	}
	if reader.Stats.Aborts != 0 || reader.Stats.SnapshotFallbacks != 0 || reader.Stats.Commits != 1 {
		t.Fatalf("reader stats = %+v, want 1 commit and no aborts/fallbacks", reader.Stats)
	}
	if writer.Stats.Aborts != 0 || writer.Stats.Violations != 0 {
		t.Fatalf("writer stats = %+v, want no lost work", writer.Stats)
	}
}

// eventLog is a test tracer that retains every event per CPU lane.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Trace(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// TestSnapshotReadersNonBlocking is the acceptance test for the
// non-blocking claim: a writer commits continuously while an AtomicRead
// loop completes a fixed budget of read-only transactions. No reader
// transaction may see a torn pair or be violated, and every one that
// completes on the snapshot path does so at attempt 0 with no abort or
// backoff on its lane — even though the writer truncates history under
// it the whole time.
//
// What the test must not demand is zero fallbacks. A reader that spends
// all maxSnapshotRestarts restarts lapped twice, or behind a writer
// descheduled mid-commit with its lockwords held, is documented to fall
// back to the retry path (AtomicRead), where it is an ordinary
// transaction that may abort and retry; on a loaded 2-vCPU host under
// -race that happens to about one read in 2000. So fallbacks are bounded
// (1 %) rather than forbidden, and the retry record is held to them.
func TestSnapshotReadersNonBlocking(t *testing.T) {
	const readerTxs = 2000
	a := NewVar(0)
	b := NewVar(0)
	reader := newSnapThread(1)
	reader.TraceID = 1
	writer := newSnapThread(2)
	writer.TraceID = 2

	log := &eventLog{}
	obs.SetTracer(log)
	defer obs.SetTracer(nil)

	stop := make(chan struct{})
	var writerCommits atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = writer.Atomic(func(tx *Tx) error {
				a.Set(tx, i)
				b.Set(tx, i)
				return nil
			})
			writerCommits.Add(1)
		}
	}()

	// Keep reading until the writer has provably committed under us —
	// snapshot reads are fast enough to finish before a goroutine
	// switch, which would prove nothing.
	readerDone := 0
	for readerDone < readerTxs || writerCommits.Load() < 50 {
		if err := reader.AtomicRead(func(tx *Tx) error {
			if x, y := a.Get(tx), b.Get(tx); x != y {
				t.Errorf("torn snapshot: a=%d b=%d", x, y)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		readerDone++
	}
	close(stop)
	wg.Wait()

	st := reader.Stats
	if st.Commits != uint64(readerDone) || st.SnapshotCommits+st.SnapshotFallbacks != uint64(readerDone) {
		t.Fatalf("reader commits = %d (snapshot %d + fallbacks %d), want %d",
			st.Commits, st.SnapshotCommits, st.SnapshotFallbacks, readerDone)
	}
	if st.SnapshotFallbacks*100 > uint64(readerDone) {
		t.Fatalf("%d of %d reads fell back, want at most 1%%", st.SnapshotFallbacks, readerDone)
	}
	if st.Violations != 0 {
		t.Fatalf("reader was violated: %+v", st)
	}
	// A fallen-back read re-runs as a new transaction (fresh TxID) whose
	// commit event has Snapshot == false; only those may have retried.
	log.mu.Lock()
	defer log.mu.Unlock()
	fellBack := map[uint64]bool{}
	for _, e := range log.events {
		if e.CPU == reader.TraceID && e.Kind == obs.KindTxCommit && !e.Snapshot {
			fellBack[e.TxID] = true
		}
	}
	if uint64(len(fellBack)) != st.SnapshotFallbacks {
		t.Fatalf("%d commits off the snapshot path, %d fallbacks", len(fellBack), st.SnapshotFallbacks)
	}
	var aborts uint64
	for _, e := range log.events {
		if e.CPU != reader.TraceID {
			continue
		}
		switch e.Kind {
		case obs.KindTxViolated:
			t.Fatalf("reader lane emitted %v", e.Kind)
		case obs.KindTxAbort, obs.KindBackoff:
			if !fellBack[e.TxID] {
				t.Fatalf("reader lane emitted %v for tx %d, which did not fall back; snapshot readers must never retry", e.Kind, e.TxID)
			}
			if e.Kind == obs.KindTxAbort {
				aborts++
			}
		case obs.KindTxCommit:
			if e.Snapshot && e.Attempt != 0 {
				t.Fatalf("snapshot commit event at attempt %d, want 0", e.Attempt)
			}
		}
	}
	if st.SnapshotFallbacks != 0 {
		t.Logf("%d of %d reads fell back, %d aborts on them", st.SnapshotFallbacks, readerDone, aborts)
	}
	if aborts != st.Aborts {
		t.Fatalf("%d aborts counted, %d abort events on fallen-back transactions", st.Aborts, aborts)
	}
}

// TestSnapshotTornPairStress hammers two vars from a writer while
// snapshot readers check the (a == b) invariant, under -race in CI.
// One prior box per var is exactly enough for a reader one commit
// behind; a reader lapped twice restarts with a fresh read version and
// must still never observe a mixed pair.
func TestSnapshotTornPairStress(t *testing.T) {
	a := NewVar(0)
	b := NewVar(0)
	const readers = 4
	iters := 5000
	if testing.Short() {
		iters = 500
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer := newSnapThread(99)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = writer.Atomic(func(tx *Tx) error {
				a.Set(tx, i)
				b.Set(tx, i)
				return nil
			})
		}
	}()

	var torn atomic.Uint64
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(seed int64) {
			defer rg.Done()
			th := newSnapThread(seed)
			for i := 0; i < iters; i++ {
				_ = th.AtomicRead(func(tx *Tx) error {
					if x, y := a.Get(tx), b.Get(tx); x != y {
						torn.Add(1)
					}
					return nil
				})
			}
		}(int64(r + 1))
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("observed %d torn snapshots", n)
	}
}

// TestAtomicReadFallbackOnWrite: a body that writes cannot stay on the
// snapshot path; it transparently re-runs on the retry path, commits
// the write, and the detour is visible in SnapshotFallbacks.
func TestAtomicReadFallbackOnWrite(t *testing.T) {
	v := NewVar(0)
	th := newSnapThread(1)
	if err := th.AtomicRead(func(tx *Tx) error {
		v.Set(tx, v.Get(tx)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != 1 {
		t.Fatalf("fallback write lost: v = %d, want 1", got)
	}
	if th.Stats.SnapshotFallbacks != 1 || th.Stats.Commits != 1 || th.Stats.SnapshotCommits != 0 {
		t.Fatalf("stats = %+v, want 1 fallback + 1 ordinary commit", th.Stats)
	}
}

// TestAtomicReadFallbackOnOpenNesting: open nesting exists to publish
// effects, so it too drops the attempt to the retry path.
func TestAtomicReadFallbackOnOpenNesting(t *testing.T) {
	v := NewVar(0)
	th := newSnapThread(1)
	if err := th.AtomicRead(func(tx *Tx) error {
		return tx.Open(func(o *Tx) error {
			v.Set(o, 7)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := v.GetCommitted(); got != 7 {
		t.Fatalf("open-nested write lost: v = %d, want 7", got)
	}
	if th.Stats.SnapshotFallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", th.Stats)
	}
}

// TestAtomicReadShallowHistoryRestart: when writers lap the reader
// twice mid-attempt, the snapshot restarts with a fresh read version
// (no fallback, no abort) and completes on the snapshot path.
func TestAtomicReadShallowHistoryRestart(t *testing.T) {
	v := NewVar(0)
	th := newSnapThread(1)
	lapped := false
	if err := th.AtomicRead(func(tx *Tx) error {
		if !lapped {
			// Two committed writes after this attempt sampled its
			// read version truncate v's history past it.
			lapped = true
			v.SetCommitted(1)
			v.SetCommitted(2)
		}
		v.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Stats.SnapshotCommits != 1 || th.Stats.SnapshotFallbacks != 0 || th.Stats.Aborts != 0 {
		t.Fatalf("stats = %+v, want a snapshot commit after a silent restart", th.Stats)
	}
}

// TestAtomicReadNested: closed nesting is read-compatible — a Nested
// body in snapshot mode reads the same frozen version and the whole
// transaction still commits on the snapshot path.
func TestAtomicReadNested(t *testing.T) {
	v := NewVar(5)
	th := newSnapThread(1)
	var got int
	if err := th.AtomicRead(func(tx *Tx) error {
		return tx.Nested(func() error {
			got = v.Get(tx)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 || th.Stats.SnapshotCommits != 1 {
		t.Fatalf("nested snapshot read got %d (stats %+v), want 5 on the snapshot path", got, th.Stats)
	}
}

// TestSnapshotStatsAdd keeps the aggregation in sync with the new
// counters.
func TestSnapshotStatsAdd(t *testing.T) {
	var a, b Stats
	a.SnapshotCommits, a.SnapshotFallbacks = 2, 1
	b.SnapshotCommits, b.SnapshotFallbacks = 3, 4
	a.Add(b)
	if a.SnapshotCommits != 5 || a.SnapshotFallbacks != 5 {
		t.Fatalf("Stats.Add dropped snapshot counters: %+v", a)
	}
}
