package stm

import (
	"math/rand"
	"testing"
)

func TestExponentialBackoffGrowsAndCaps(t *testing.T) {
	p := ExponentialBackoff{}
	rng := rand.New(rand.NewSource(1))
	prev := uint64(0)
	for attempt := 0; attempt <= backoffMaxShift; attempt++ {
		// Average over jitter.
		var sum uint64
		for i := 0; i < 100; i++ {
			sum += p.Backoff(attempt, rng)
		}
		avg := sum / 100
		if avg <= prev {
			t.Fatalf("attempt %d: avg %d did not grow past %d", attempt, avg, prev)
		}
		prev = avg
	}
	// Beyond backoffMaxShift the bound stops growing.
	capped := uint64(backoffBase) << backoffMaxShift
	for i := 0; i < 1000; i++ {
		if b := p.Backoff(100, rng); b < capped || b >= 2*capped {
			t.Fatalf("capped backoff produced %d, want [%d, %d)", b, capped, 2*capped)
		}
	}
}

func TestAggressiveRetryIsTiny(t *testing.T) {
	p := AggressiveRetry{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if b := p.Backoff(i, rng); b == 0 || b > 8 {
			t.Fatalf("aggressive backoff = %d", b)
		}
	}
}

// fixedBackoff stalls a constant number of cycles per failure.
type fixedBackoff uint64

func (p fixedBackoff) Backoff(int, *rand.Rand) uint64 { return uint64(p) }

func TestSetBackoffPolicyIsUsed(t *testing.T) {
	clock := &RealClock{}
	th := NewThread(clock, 1)
	th.SetBackoffPolicy(fixedBackoff(1000))
	attempts := 0
	if err := th.Atomic(func(tx *Tx) error {
		attempts++
		if attempts == 1 {
			tx.bail(sigRetry, "forced")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// One forced retry must have charged at least the fixed stall via
	// Clock.Wait (RealClock counts waited cycles in Now).
	if clock.Now() < 1000 {
		t.Fatalf("custom policy not applied: clock = %d", clock.Now())
	}
	th.SetBackoffPolicy(nil) // restore default must not panic
	if err := th.Atomic(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
