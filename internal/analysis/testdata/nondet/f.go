// Package fixture exercises the nondeterminism rule.
package fixture

import (
	"math/rand"
	"sync/atomic"
	"time"

	"tcc/internal/stm"
)

var guard = stm.NewGuard()

// bad: wall clock and global RNG inside a transactional body — retries
// re-draw fresh values and the virtual clock never sees the time.
func nondetBody(th *stm.Thread, v *stm.Var[int64]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, time.Now().UnixNano()) // want nondeterminism
		time.Sleep(time.Millisecond)     // want nondeterminism
		v.Set(tx, int64(rand.Intn(10)))  // want nondeterminism
		return nil
	})
}

// bad: wall clock inside a commit handler.
func nondetHandler(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.OnCommitGuarded(guard, func() {
			_ = time.Since(time.Unix(0, 0)) // want nondeterminism
		})
		return nil
	})
}

// bad: global RNG inside an open-nested body.
func nondetOpen(th *stm.Thread, v *stm.Var[float64]) error {
	return th.Atomic(func(tx *stm.Tx) error {
		return tx.Open(func(o *stm.Tx) error {
			v.Set(o, rand.Float64()) // want nondeterminism
			return nil
		})
	})
}

// clean: a deterministic per-worker generator, seeded explicitly.
func cleanSeededRNG(th *stm.Thread, v *stm.Var[int]) error {
	rng := rand.New(rand.NewSource(42))
	return th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, rng.Intn(10))
		return nil
	})
}

// clean: charging virtual time through the worker's clock.
func cleanClock(th *stm.Thread) error {
	return th.Atomic(func(tx *stm.Tx) error {
		tx.Thread().Clock.Tick(100)
		return nil
	})
}

// clean: wall clock outside any transaction (measurement harness).
func cleanOutside(th *stm.Thread) (time.Duration, error) {
	start := time.Now()
	err := th.Atomic(func(tx *stm.Tx) error { return nil })
	return time.Since(start), err
}

// clean: sync/atomic operations inside a transactional body. Atomic
// loads, stores and CASes are deterministic single-word memory
// operations with no hidden host state — the idiom the stm core's TL2
// packed lockword uses on every read and commit — and must never be
// confused with the wall-clock/global-RNG nondeterminism this rule
// polices.
func cleanAtomics(th *stm.Thread, v *stm.Var[uint64], epoch *atomic.Uint64) error {
	return th.Atomic(func(tx *stm.Tx) error {
		v.Set(tx, epoch.Add(1))
		return nil
	})
}

// clean: a CAS spin loop inside a transactional body, the shape of the
// lockword acquire protocol.
func cleanCASSpin(th *stm.Thread, word *atomic.Uint64) error {
	return th.Atomic(func(tx *stm.Tx) error {
		for {
			w := word.Load()
			if word.CompareAndSwap(w, w|1) {
				return nil
			}
		}
	})
}
