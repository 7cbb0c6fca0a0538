// Package writeinreadonly exercises the write-in-readonly rule: a
// Var.Set — or a fallback-forcing registration (Tx.Open, the four
// handler registrations, AddTopGuard) — reachable from a function
// passed to Thread.AtomicRead silently demotes the snapshot read to
// the locking retry path. Reads, nested closures that only read, and
// writes inside ordinary Thread.Atomic bodies are all clean.
package writeinreadonly

import "tcc/internal/stm"

var (
	v     = stm.NewVar(0)
	guard = stm.NewGuard()
)

// readOnlyRead: pure reads are what AtomicRead is for — clean.
func readOnlyRead(th *stm.Thread) (int, error) {
	var got int
	err := th.AtomicRead(func(tx *stm.Tx) error {
		got = v.Get(tx)
		return nil
	})
	return got, err
}

// writeInBody: the canonical mistake — a Set directly in the body.
func writeInBody(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		v.Set(tx, 1) // want write-in-readonly
		return nil
	})
}

// writeInClosure: a plain nested closure runs inline in the same
// transaction, so its write counts.
func writeInClosure(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		bump := func() { v.Set(tx, v.Get(tx)+1) } // want write-in-readonly
		bump()
		return nil
	})
}

// writeThroughCall reaches the Set through a helper: the diagnostic
// lands on the in-body call site with the chain in its message.
func writeThroughCall(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		increment(tx) // want write-in-readonly
		return nil
	})
}

func increment(tx *stm.Tx) {
	v.Set(tx, v.Get(tx)+1) // only flagged when reached from a read-only body
}

// readThroughCall: the same shape without a write stays clean.
func readThroughCall(th *stm.Thread) (int, error) {
	var got int
	err := th.AtomicRead(func(tx *stm.Tx) error {
		got = lookup(tx)
		return nil
	})
	return got, err
}

func lookup(tx *stm.Tx) int { return v.Get(tx) }

// namedBody: a named function passed to AtomicRead is a root too; the
// write is flagged at its own position inside the declaration.
func namedBody(th *stm.Thread) error {
	return th.AtomicRead(namedWriter)
}

func namedWriter(tx *stm.Tx) error {
	v.Set(tx, 2) // want write-in-readonly
	return nil
}

// openInBody: an open-nested section publishes effects and takes locks,
// which the snapshot path cannot; the Open call itself is the finding,
// even with an empty section.
func openInBody(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		return tx.Open(func(otx *stm.Tx) error { // want write-in-readonly
			return nil
		})
	})
}

// handlerInBody: registering a commit handler forces the fallback even
// though the handler never touches a Var.
func handlerInBody(th *stm.Thread, n *int) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		tx.OnTopCommitGuarded(guard, func() { *n++ }) // want write-in-readonly
		return nil
	})
}

// writeInAtomic: an ordinary read-write transaction writes freely.
func writeInAtomic(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, 4)
		return nil
	})
}

// suppressedWrite: a reviewed demotion is silenced in place.
func suppressedWrite(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		//stmlint:ignore write-in-readonly warm-up write, fallback accepted
		v.Set(tx, 5)
		return nil
	})
}
