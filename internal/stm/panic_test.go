package stm

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"tcc/internal/obs"
)

// within runs fn on its own goroutine and fails the test if it has not
// returned after d: a transaction that meets a leaked lockword or guard
// spins or blocks for ever, and the test should say so instead.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// atRest reports whether th is between transactions with nothing of the
// last one left on its Tx.
func atRest(th *Thread) bool {
	return !th.inTx && reflect.DeepEqual(th.tx, Tx{thread: th, eagerLocks: th.tx.eagerLocks[:0]})
}

// TestForeignPanicUnwinds: a panic that is not the STM's own unwinds like
// a tx.Abort — through every level it passes, each rolling back on the way
// out — and then goes on into the caller of Atomic as the value it was.
// Whatever level it starts in, every abort handler registered on the way
// down runs exactly once, newest-first, under its guard; no commit handler
// runs; no lockword, guard or pooled object stays with the dead attempt;
// and every observer sees one user abort with the reason "panic".
func TestForeignPanicUnwinds(t *testing.T) {
	boom := errors.New("boom") // compared by identity
	type probe struct {
		tx     *Tx
		v      *Var[int]
		guards []*Guard
		log    []string
		bad    []string // handlers that ran without their guard
		runs   int      // body executions
	}
	// onAbort registers an abort handler (and a commit handler that must
	// never run) on tx under a fresh guard.
	onAbort := func(p *probe, tx *Tx, name string) {
		g := NewGuard()
		g.SetLabel(name)
		p.guards = append(p.guards, g)
		tx.OnAbortGuarded(g, func() {
			p.log = append(p.log, name)
			if len(notHeld(g)) != 0 {
				p.bad = append(p.bad, name)
			}
		})
		tx.OnCommitGuarded(g, func() { p.log = append(p.log, "commit:"+name) })
	}
	// open commits an open-nested child that registers a handler pair,
	// which thereby attaches to the level tx is in.
	open := func(p *probe, name string) {
		if err := p.tx.Open(func(o *Tx) error { onAbort(p, o, name); return nil }); err != nil {
			panic(err)
		}
	}
	// dying is an open-nested child that writes, registers and panics: it
	// never commits, so its registration is dropped with it.
	dying := func(p *probe) {
		_ = p.tx.Open(func(o *Tx) error {
			onAbort(p, o, "unborn")
			p.v.Set(o, 2)
			panic(boom)
		})
	}
	sites := []struct {
		name string
		read bool // AtomicRead
		lvls int  // levels the attempt had pushed at once, all due back in the pool
		want []string
		body func(p *probe) error
	}{
		{"body", false, 1, []string{"root2", "root1"}, func(p *probe) error {
			onAbort(p, p.tx, "root1")
			onAbort(p, p.tx, "root2")
			p.v.Set(p.tx, 1)
			panic(boom)
		}},
		{"open", false, 2, []string{"open1", "root1"}, func(p *probe) error {
			onAbort(p, p.tx, "root1")
			open(p, "open1")
			p.v.Set(p.tx, 1)
			dying(p)
			return nil
		}},
		{"nested", false, 2, []string{"nested2", "nested1", "root1"}, func(p *probe) error {
			onAbort(p, p.tx, "root1")
			return p.tx.Nested(func() error {
				onAbort(p, p.tx, "nested1")
				onAbort(p, p.tx, "nested2")
				p.v.Set(p.tx, 1)
				panic(boom)
			})
		}},
		{"open-in-nested", false, 3, []string{"open1", "nested1", "root1"}, func(p *probe) error {
			onAbort(p, p.tx, "root1")
			return p.tx.Nested(func() error {
				onAbort(p, p.tx, "nested1")
				open(p, "open1")
				p.v.Set(p.tx, 1)
				dying(p)
				return nil
			})
		}},
		{"atomic-read", true, 1, nil, func(p *probe) error {
			_ = p.v.Get(p.tx)
			panic(boom)
		}},
	}
	for _, proto := range Protocols() {
		for _, site := range sites {
			t.Run(proto+"/"+site.name, func(t *testing.T) {
				sink := withSink(t)
				th := protoThread(t, proto, 1)
				p := &probe{v: NewVar(0)}
				atomic := th.Atomic
				if site.read {
					atomic = th.AtomicRead
				}
				var recovered any
				func() {
					defer func() { recovered = recover() }()
					err := atomic(func(tx *Tx) error {
						p.tx = tx
						p.runs++
						return site.body(p)
					})
					t.Errorf("Atomic returned %v; the panic did not reach the caller", err)
				}()
				if recovered != boom {
					t.Fatalf("recovered %v, want the body's own panic value", recovered)
				}
				if p.runs != 1 {
					t.Errorf("body ran %d times, want once", p.runs)
				}
				if !slices.Equal(p.log, site.want) {
					t.Errorf("handlers ran %v, want the abort handlers %v", p.log, site.want)
				}
				if len(p.bad) != 0 {
					t.Errorf("abort handlers %v ran without their guard", p.bad)
				}
				if free := notHeld(p.guards...); len(free) != len(p.guards) {
					t.Errorf("only %v of %d guards are free afterwards", free, len(p.guards))
				}
				s := th.Stats
				if s.UserAborts != 1 || s.Commits+s.Aborts+s.Violations+s.SnapshotFallbacks+s.HandlerRuns != 0 {
					t.Errorf("stats = %+v, want one user abort and nothing else", s)
				}
				var ends []string
				for _, e := range sink.events {
					switch e.Kind {
					case obs.KindTxCommit, obs.KindTxAbort, obs.KindTxViolated, obs.KindTxUserAbort:
						ends = append(ends, e.Kind.String()+":"+e.Reason)
					}
				}
				if want := []string{obs.KindTxUserAbort.String() + ":panic"}; !slices.Equal(ends, want) {
					t.Errorf("attempt-ending events = %v, want %v", ends, want)
				}
				if !atRest(th) || len(th.levelPool) != site.lvls {
					t.Errorf("inTx = %v, Tx = %+v, %d levels in the pool; want the Tx at rest and %d levels",
						th.inTx, th.tx, len(th.levelPool), site.lvls)
				}
				// No lockword stayed with the dead handle: another thread
				// writes the var at its first attempt, and so does this one.
				other := protoThread(t, proto, 2)
				for _, w := range []*Thread{other, th} {
					within(t, 2*time.Second, "a write to the var the dead attempt wrote", func() {
						if err := w.Atomic(func(tx *Tx) error { p.v.Set(tx, p.v.Get(tx)+10); return nil }); err != nil {
							t.Error(err)
						}
					})
					if w.Stats.Commits != 1 || w.Stats.Aborts != 0 {
						t.Errorf("follow-up transaction: stats %+v, want one commit at the first attempt", w.Stats)
					}
				}
				if got := p.v.GetCommitted(); got != 20 {
					t.Errorf("var = %d, want 20: the dead attempt's write must not be there", got)
				}
			})
		}
	}

	// runtime.Goexit (t.FailNow inside a body) is not a panic: it is not
	// converted, nothing is reported and the goroutine goes on exiting.
	t.Run("goexit", func(t *testing.T) {
		th := newTestThread()
		var recovered any
		returned := false
		within(t, 2*time.Second, "Goexit inside a body", func() {
			defer func() { recovered = recover() }()
			_ = th.Atomic(func(tx *Tx) error {
				runtime.Goexit()
				return nil
			})
			returned = true
		})
		if recovered != nil || returned || th.Stats.UserAborts != 0 || th.inTx {
			t.Fatalf("Goexit was converted: recovered %v, Atomic returned = %v, stats %+v, inTx = %v",
				recovered, returned, th.Stats, th.inTx)
		}
	})
}

// TestPanicInHandlerWindowUnwinds: a handler that panics inside the
// handler window — a commit handler past the point of no return, or an
// abort handler in a top-level rollback, in Nested's partial rollback, or
// attached by an open-nested child — does not stop the handlers after it,
// leaves no guard locked, and reaches the caller of Atomic as the value it
// was once the commit or the rollback is complete. The commit-handler
// case committed: its write is there and Stats says so.
func TestPanicInHandlerWindowUnwinds(t *testing.T) {
	boom := errors.New("boom") // compared by identity
	fail := errors.New("fail") // what a body returns to be rolled back
	type probe struct {
		tx     *Tx
		v      *Var[int]
		guards []*Guard
		log    []string
	}
	// handler returns a handler that logs name — or panics, if name is
	// "boom" — with a fresh guard to register it under.
	handler := func(p *probe, name string) (*Guard, func()) {
		g := NewGuard()
		g.SetLabel(name)
		p.guards = append(p.guards, g)
		return g, func() {
			if name == "boom" {
				panic(boom)
			}
			p.log = append(p.log, name)
		}
	}
	// onAbort registers three abort handlers on tx, the middle one
	// panicking: they run newest-first, so "1" is the one after the panic.
	onAbort := func(p *probe, tx *Tx, prefix string) {
		for _, name := range []string{prefix + "1", "boom", prefix + "3"} {
			tx.OnAbortGuarded(handler(p, name))
		}
	}
	sites := []struct {
		name      string
		committed bool
		want      []string
		body      func(p *probe) error
	}{
		{"commit", true, []string{"c1", "c3"}, func(p *probe) error {
			for _, name := range []string{"c1", "boom", "c3"} {
				p.tx.OnCommitGuarded(handler(p, name))
			}
			return nil
		}},
		{"abort-top", false, []string{"a3", "a1"}, func(p *probe) error {
			onAbort(p, p.tx, "a")
			return fail
		}},
		{"abort-nested", false, []string{"n3", "n1", "root"}, func(p *probe) error {
			p.tx.OnAbortGuarded(handler(p, "root"))
			err := p.tx.Nested(func() error {
				onAbort(p, p.tx, "n")
				return fail
			})
			p.log = append(p.log, "the body went on after the partial rollback")
			return err
		}},
		{"abort-open", false, []string{"o3", "o1"}, func(p *probe) error {
			if err := p.tx.Open(func(o *Tx) error { onAbort(p, o, "o"); return nil }); err != nil {
				return err
			}
			return fail
		}},
	}
	for _, proto := range Protocols() {
		for _, site := range sites {
			t.Run(proto+"/"+site.name, func(t *testing.T) {
				th := protoThread(t, proto, 1)
				p := &probe{v: NewVar(0)}
				var recovered any
				within(t, 2*time.Second, "the transaction whose handler panics", func() {
					defer func() { recovered = recover() }()
					err := th.Atomic(func(tx *Tx) error {
						p.tx = tx
						p.v.Set(tx, 1)
						return site.body(p)
					})
					t.Errorf("Atomic returned %v; the panic did not reach the caller", err)
				})
				if recovered != boom {
					t.Fatalf("recovered %v, want the handler's own panic value", recovered)
				}
				if !slices.Equal(p.log, site.want) {
					t.Errorf("handlers ran %v, want %v: the ones after the panicking one run, once", p.log, site.want)
				}
				if free := notHeld(p.guards...); len(free) != len(p.guards) {
					t.Errorf("only %v of %d guards are free afterwards", free, len(p.guards))
				}
				want := Stats{Protocol: proto, UserAborts: 1}
				if site.committed {
					want = Stats{Protocol: proto, Commits: 1, HandlerRuns: 3}
				}
				got := th.Stats
				got.OpenCommits = 0 // the site's own
				if !reflect.DeepEqual(got, want) {
					t.Errorf("stats = %+v, want %+v", got, want)
				}
				if !atRest(th) {
					t.Errorf("inTx = %v, Tx = %+v; want the Tx at rest", th.inTx, th.tx)
				}
				// Neither a guard nor a lockword stayed behind: the same
				// thread commits a fresh transaction, through the same guards.
				within(t, 2*time.Second, "the thread's next transaction", func() {
					if err := th.Atomic(func(tx *Tx) error {
						for _, g := range p.guards {
							tx.OnCommitGuarded(g, func() {})
						}
						p.v.Set(tx, p.v.Get(tx)+10)
						return nil
					}); err != nil {
						t.Error(err)
					}
				})
				if th.Stats.Commits != want.Commits+1 || th.Stats.Aborts != 0 {
					t.Errorf("follow-up transaction: stats %+v, want a commit at the first attempt", th.Stats)
				}
				wantVal := 10
				if site.committed {
					wantVal = 11 // past the point of no return: the write is in
				}
				if got := p.v.GetCommitted(); got != wantVal {
					t.Errorf("var = %d, want %d", got, wantVal)
				}
			})
		}
	}
}
