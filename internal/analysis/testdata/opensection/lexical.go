package opensection

// The half of the fixture that needs neither //stmlint:window around nor
// //stmlint:txbody: the span sweep the helpers of f.go are built on, and
// the statements of f.go's literals in the lexical shape they replace.
// With every directive stripped, what is still found is found here.

import (
	"time"

	"tcc/internal/obs"
	"tcc/internal/stm"
)

var other = stm.NewGuard()

type striped struct {
	guards []*stm.Guard
}

//stmlint:window open
func (s *striped) lockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Lock()
	}
}

//stmlint:window close
func (s *striped) unlockSpan(lo, hi int) {
	for _, g := range s.guards[lo:hi] {
		g.Unlock()
	}
}

func noop(*stm.Tx) error { return nil }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// lexicalTwin is what the literals of f.go replace: the same five
// statements between a lexical opener and closer inside tx.Open.
func lexicalTwin(tx *stm.Tx, s *striped, tr obs.Tracer, ch chan int) {
	_ = tx.Open(func(*stm.Tx) error {
		s.lockSpan(0, 2)
		defer s.unlockSpan(0, 2)
		ch <- 1                        // want commit-window-blocking
		tr.Trace(obs.Event{})          // want trace-in-commit trace-in-commit
		_ = time.Now()                 // want nondeterminism
		must(tx.Thread().Atomic(noop)) // want nested-atomic guard-order trace-in-commit
		other.Lock()                   // want guard-order
		other.Unlock()
		return nil
	})
}

// sectionUnderLexicalHold: entering a section with a guard already held is
// a second acquisition whatever the directives say — the search reaches
// the sweep's Guard.Lock, and the child's commit reaches the tracer.
func sectionUnderLexicalHold(tx *stm.Tx, s *striped) {
	other.Lock()
	s.section(tx, 0, 2, func() {}) // want guard-order trace-in-commit
	other.Unlock()
}
