package stm

import (
	"errors"
	"testing"
	"time"
)

// TestOpenSection pins the contract of Tx.Open under every protocol: the
// section runs on the current level of the running attempt, a Var access
// inside it panics — however deep the sections nest — and leaves nothing
// held, an error from it drops the registrations it made, a signal out of
// it keeps them for the rollback, and a snapshot attempt leaves the
// snapshot path for it once.
func TestOpenSection(t *testing.T) {
	errSection := errors.New("section error")
	// varInside runs a body whose Open section (reached through open,
	// which may nest it) makes the Var access access, while the enclosing
	// level has written p and registered a compensation under g, and
	// checks that the access panics and that the thread is clean after.
	varInside := func(t *testing.T, proto string, open func(tx *Tx, fn func()), access func(v *Var[int], tx *Tx)) {
		th := protoThread(t, proto, 1)
		p, v := NewVar(0), NewVar(0)
		g := NewGuard()
		g.SetLabel("section")
		compensated := 0
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = th.Atomic(func(tx *Tx) error {
				p.Set(tx, 1)
				tx.OnAbortGuarded(g, func() { compensated++ })
				open(tx, func() {
					g.Lock()
					defer g.Unlock()
					access(v, tx)
				})
				return nil
			})
		}()
		if recovered != errVarInOpen {
			t.Fatalf("recovered %v, want %q", recovered, errVarInOpen)
		}
		if compensated != 1 {
			t.Errorf("compensation ran %d times, want once", compensated)
		}
		if len(notHeld(g)) != 1 || wordLocked(p.core.word.Load()) || wordLocked(v.core.word.Load()) {
			t.Errorf("a guard or lockword is still held: guard free = %v, p locked = %v, v locked = %v",
				len(notHeld(g)) == 1, wordLocked(p.core.word.Load()), wordLocked(v.core.word.Load()))
		}
		if !atRest(th) {
			t.Errorf("Tx = %+v, want it at rest", th.tx)
		}
		within(t, 2*time.Second, "the thread's next transaction", func() {
			MustAtomicT(t, th, func(tx *Tx) error {
				tx.OnCommitGuarded(g, func() {})
				p.Set(tx, v.Get(tx)+2)
				v.Set(tx, 3)
				return nil
			})
		})
		if th.Stats.Commits != 1 || th.Stats.Aborts != 0 || p.GetCommitted() != 2 || v.GetCommitted() != 3 {
			t.Errorf("follow-up: stats %+v, p = %d, v = %d; want one first-attempt commit of 2 and 3",
				th.Stats, p.GetCommitted(), v.GetCommitted())
		}
	}
	open := func(tx *Tx, fn func()) {
		_ = tx.Open(func(*Tx) error { fn(); return nil })
	}
	// openAfterInner runs fn in a section, after an inner section nested in
	// it has returned.
	openAfterInner := func(tx *Tx, fn func()) {
		_ = tx.Open(func(o *Tx) error {
			if err := o.Open(func(*Tx) error { return nil }); err != nil {
				return err
			}
			fn()
			return nil
		})
	}
	get := func(v *Var[int], tx *Tx) { _ = v.Get(tx) }
	set := func(v *Var[int], tx *Tx) { v.Set(tx, 1) }

	cases := []struct {
		name string
		run  func(t *testing.T, proto string)
	}{
		{"Var.Get panics", func(t *testing.T, proto string) { varInside(t, proto, open, get) }},
		{"Var.Set panics", func(t *testing.T, proto string) { varInside(t, proto, open, set) }},
		{"the ban outlives an inner section", func(t *testing.T, proto string) {
			varInside(t, proto, openAfterInner, get)
		}},
		{"an error drops the registrations", func(t *testing.T, proto string) {
			th := protoThread(t, proto, 1)
			extra := NewGuard()
			ran := 0
			for _, bodyErr := range []error{nil, errSection} {
				err := th.Atomic(func(tx *Tx) error {
					kept := func() { ran += 100 }
					tx.OnCommitGuarded(testGuard, kept)
					tx.OnAbortGuarded(testGuard, kept)
					if err := tx.Nested(func() error {
						err := tx.Open(func(o *Tx) error {
							h := func() { ran++ }
							o.OnCommitGuarded(testGuard, h)
							o.OnAbortGuarded(testGuard, h)
							o.OnTopCommitGuarded(testGuard, h)
							o.OnTopAbortGuarded(testGuard, h)
							o.AddTopGuard(extra)
							return errSection
						})
						if err != errSection {
							t.Errorf("Open returned %v, want %v", err, errSection)
						}
						return nil
					}); err != nil {
						return err
					}
					root := tx.rootLevel()
					if len(root.onCommit) != 1 || len(root.onAbort) != 1 {
						t.Errorf("root level holds %d commit and %d abort registrations, want the body's 1 and 1",
							len(root.onCommit), len(root.onAbort))
					}
					return bodyErr
				})
				if err != bodyErr {
					t.Fatalf("Atomic returned %v, want %v", err, bodyErr)
				}
			}
			if ran != 200 {
				t.Errorf("handlers ran to %d, want 200: the body's commit and abort handler, none of the section's", ran)
			}
		}},
		{"a signal keeps the registrations", func(t *testing.T, proto string) {
			th := protoThread(t, proto, 1)
			compensated, committed := 0, 0
			err := th.Atomic(func(tx *Tx) error {
				return tx.Nested(func() error {
					return tx.Open(func(o *Tx) error {
						o.OnAbortGuarded(testGuard, func() { compensated++ })
						o.OnCommitGuarded(testGuard, func() { committed++ })
						o.Abort(errSection)
						return nil
					})
				})
			})
			if err != errSection {
				t.Fatalf("Atomic returned %v, want %v", err, errSection)
			}
			if compensated != 1 || committed != 0 {
				t.Errorf("abort handler ran %d times, commit handler %d; want 1 and 0", compensated, committed)
			}
			if th.Stats.UserAborts != 1 || th.Stats.OpenCommits != 0 {
				t.Errorf("stats = %+v, want one user abort and no open commit", th.Stats)
			}
		}},
		{"AtomicRead falls back once", func(t *testing.T, proto string) {
			th := protoThread(t, proto, 1)
			v := NewVar(5)
			runs, sections := 0, 0
			if err := th.AtomicRead(func(tx *Tx) error {
				runs++
				_ = v.Get(tx)
				if err := tx.Open(func(*Tx) error { sections++; return nil }); err != nil {
					return err
				}
				_ = v.Get(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s := th.Stats
			if runs != 2 || sections != 1 {
				t.Errorf("body ran %d times, section %d; want 2 and 1", runs, sections)
			}
			if s.SnapshotFallbacks != 1 || s.Commits != 1 || s.SnapshotCommits != 0 || s.OpenCommits != 1 || s.Aborts != 0 {
				t.Errorf("stats = %+v, want 1 fallback, 1 ordinary commit, 1 open commit", s)
			}
		}},
	}
	for _, proto := range Protocols() {
		for _, c := range cases {
			t.Run(proto+"/"+c.name, func(t *testing.T) { c.run(t, proto) })
		}
	}
}
