package stm

import "testing"

// TestViolationReasonIsNeverLost: Violate publishes the status and the
// reason in one word, so a victim that observes its violation always
// reads why. The victim spins on tx.Poll while another goroutine
// violates it — the tightest window there is between the two. A reason
// stored after the status loses that race most of the time, and the
// violation is then counted as "(unspecified)".
func TestViolationReasonIsNeverLost(t *testing.T) {
	const n = 10000
	th := NewThread(&RealClock{}, 1)
	th.SetBackoffPolicy(AggressiveRetry{})
	victims := make(chan *Handle)
	violated := make(chan struct{})
	go func() {
		defer close(violated)
		for h := range victims {
			if !h.Violate("probe") {
				t.Error("Violate refused while the victim was still active")
			}
		}
	}()
	for i := 0; i < n; i++ {
		first := true
		err := th.Atomic(func(tx *Tx) error {
			if !first {
				return nil
			}
			first = false
			victims <- tx.Handle()
			for {
				tx.Poll()
			}
		})
		if err != nil {
			t.Fatalf("Atomic: %v", err)
		}
	}
	close(victims)
	<-violated
	if got := th.Stats.ViolationsByReason["(unspecified)"]; got != 0 {
		t.Errorf("%d of %d violations lost their reason", got, n)
	}
	if th.Stats.Violations != n || th.Stats.ViolationsByReason["probe"] != n {
		t.Errorf("violations = %d (%v), want %d attributed to probe", th.Stats.Violations, th.Stats.ViolationsByReason, n)
	}
}
