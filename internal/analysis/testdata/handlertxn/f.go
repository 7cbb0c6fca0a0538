// Package fixture exercises the handler-txn rule.
package fixture

import (
	"tcc/internal/stm"
)

var guard = stm.NewGuard()

type registry struct {
	commits int
	owner   *stm.Handle
}

// bad: commit handler touches transactional state.
func handlerVar(th *stm.Thread, v *stm.Var[int]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommitGuarded(guard, func() {
			v.SetCommitted(1) // want handler-txn
		})
		return nil
	})
}

// bad: abort handler starts a new top-level transaction.
func handlerAtomic(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnTopAbortGuarded(guard, func() {
			err := th.Atomic(func(tx2 *stm.Tx) error { return nil }) // want handler-txn
			_ = err
		})
		return nil
	})
}

// bad: a read-only top-level transaction is still a transaction.
func handlerAtomicRead(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnTopCommitGuarded(guard, func() {
			err := th.AtomicRead(func(tx2 *stm.Tx) error { return nil }) // want handler-txn
			_ = err
		})
		return nil
	})
}

// bad: handler opens a nested transaction on the dead Tx.
func handlerOpen(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnAbortGuarded(guard, func() {
			err := tx.Open(func(o *stm.Tx) error { return nil }) // want handler-txn
			_ = err
		})
		return nil
	})
}

// bad: handler uses the captured *stm.Tx (dead by the time it runs).
func handlerCapturesTx(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommitGuarded(guard, func() {
			tx.Poll() // want handler-txn
		})
		return nil
	})
}

// clean: the collection-class pattern — capture Handle and Thread
// before registering; the handler compensates with plain stores (the
// commit protocol already holds the registered guard for the whole
// handler window, so the handler takes no lock of its own) and charges
// time via DeferTick.
func cleanHandler(th *stm.Thread, reg *registry) error {
	return th.Atomic(func(tx *stm.Tx) error {
		h := tx.Handle()
		thd := tx.Thread()
		tx.OnTopCommitGuarded(guard, func() {
			reg.commits++
			reg.owner = h
			thd.DeferTick(8)
		})
		return nil
	})
}

// clean: an AtomicRead body registers nothing, and reading outside any
// handler is fine.
func cleanReadBody(th *stm.Thread, v *stm.Var[int], reg *registry) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		reg.commits = v.Get(tx)
		return nil
	})
}
