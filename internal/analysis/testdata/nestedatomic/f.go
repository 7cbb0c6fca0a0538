// Package fixture exercises the nested-atomic rule.
package fixture

import "tcc/internal/stm"

// bad: Atomic directly inside an Atomic body.
func nestedDirect(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		return th.Atomic(func(tx2 *stm.Tx) error { // want nested-atomic
			return nil
		})
	})
}

// bad: Atomic inside a plain closure nested in the body; the closure is
// invoked inline, so the transaction is still running.
func nestedViaClosure(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		helper := func() error {
			return th.Atomic(func(tx2 *stm.Tx) error { return nil }) // want nested-atomic
		}
		return helper()
	})
}

// bad: Atomic inside an open-nested body — the thread is still inside
// the enclosing top-level transaction.
func nestedInOpen(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		return tx.Open(func(o *stm.Tx) error {
			return th.Atomic(func(tx2 *stm.Tx) error { return nil }) // want nested-atomic
		})
	})
}

// clean: closed and open nesting are the sanctioned forms.
func cleanNesting(th *stm.Thread, v *stm.Var[int]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		if err := tx.Nested(func() error {
			v.Set(tx, 1)
			return nil
		}); err != nil {
			return err
		}
		return tx.Open(func(o *stm.Tx) error { return nil })
	})
}

// clean: sequential top-level transactions on one thread.
func cleanSequential(th *stm.Thread, v *stm.Var[int]) error {
	if err := th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, 1)
		return nil
	}); err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, 2)
		return nil
	})
}

// clean: a goroutine spawned from a transaction is a different worker;
// an Atomic on a thread the goroutine creates for itself is fine.
func cleanGoroutine(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		go func() {
			inner := stm.NewThread(&stm.RealClock{}, 2)
			if err := inner.Atomic(func(tx2 *stm.Tx) error { return nil }); err != nil {
				panic(err)
			}
		}()
		return nil
	})
}

// bad: AtomicRead directly inside an Atomic body — the same runtime
// panic as a nested Atomic.
func nestedReadDirect(th *stm.Thread, v *stm.Var[int]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		return th.AtomicRead(func(tx2 *stm.Tx) error { // want nested-atomic
			_ = v.Get(tx2)
			return nil
		})
	})
}

// bad: a top-level transaction of either kind inside an AtomicRead body.
func nestedInRead(th *stm.Thread) error {
	return th.AtomicRead(func(tx *stm.Tx) error {
		if err := th.Atomic(func(tx2 *stm.Tx) error { return nil }); err != nil { // want nested-atomic
			return err
		}
		return th.AtomicRead(func(tx2 *stm.Tx) error { return nil }) // want nested-atomic
	})
}

// bad: AtomicRead inside a plain closure nested in the body.
func nestedReadViaClosure(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		helper := func() error {
			return th.AtomicRead(func(tx2 *stm.Tx) error { return nil }) // want nested-atomic
		}
		return helper()
	})
}

// clean: sequential top-level transactions of both kinds on one thread.
func cleanReadSequential(th *stm.Thread, v *stm.Var[int]) error {
	if err := th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, 1)
		return nil
	}); err != nil {
		return err
	}
	return th.AtomicRead(func(tx *stm.Tx) error {
		_ = v.Get(tx)
		return nil
	})
}

// clean: an AtomicRead on a thread a spawned goroutine creates for
// itself.
func cleanReadGoroutine(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		go func() {
			inner := stm.NewThread(&stm.RealClock{}, 2)
			if err := inner.AtomicRead(func(tx2 *stm.Tx) error { return nil }); err != nil {
				panic(err)
			}
		}()
		return nil
	})
}
