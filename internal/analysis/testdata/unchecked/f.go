// Package fixture exercises the unchecked-atomic rule.
package fixture

import "tcc/internal/stm"

// bad: bare call statement drops the error.
func discardStmt(th *stm.Thread) {
	th.Atomic(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// bad: explicit blank assignment still swallows user aborts.
func discardBlank(th *stm.Thread) {
	_ = th.Atomic(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// bad: go'ing the call discards the error (and leaks the thread).
func discardGo(th *stm.Thread) {
	go th.Atomic(func(tx *stm.Tx) error { return nil }) // want tx-escape unchecked-atomic
}

// bad: deferring the call discards the error.
func discardDefer(th *stm.Thread) {
	defer th.Atomic(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// clean: error propagated.
func checkErr(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error { return nil })
}

// clean: error handled.
func handleErr(th *stm.Thread) {
	if err := th.Atomic(func(tx *stm.Tx) error { return nil }); err != nil {
		panic(err)
	}
}

// bad: AtomicRead returns the body's error exactly as Atomic does.
func discardReadStmt(th *stm.Thread) {
	th.AtomicRead(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// bad: the blank assignment swallows a read-only body's abort too.
func discardReadBlank(th *stm.Thread) {
	_ = th.AtomicRead(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// bad: go'ing an AtomicRead discards the error (and leaks the thread).
func discardReadGo(th *stm.Thread) {
	go th.AtomicRead(func(tx *stm.Tx) error { return nil }) // want tx-escape unchecked-atomic
}

// bad: deferring an AtomicRead discards the error.
func discardReadDefer(th *stm.Thread) {
	defer th.AtomicRead(func(tx *stm.Tx) error { return nil }) // want unchecked-atomic
}

// clean: AtomicRead's error propagated.
func checkReadErr(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error { return nil })
}

// clean: AtomicRead's error handled.
func handleReadErr(th *stm.Thread) {
	if err := th.AtomicRead(func(tx *stm.Tx) error { return nil }); err != nil {
		panic(err)
	}
}
