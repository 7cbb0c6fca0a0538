package stm_test

// Per-protocol hot-path benchmarks and allocation guardrails. The
// protocol seam must be pay-as-you-go: TL2 through the interface is
// covered by the headline benches in stm_bench_test.go (same budgets as
// before the seam), and the alternative protocols get the same pinned
// budgets here — NOrec's read side replaces version sampling with a
// box load plus sequence check, and eager TL2 moves lock acquisition
// to Set, neither of which may cost heap objects.

import (
	"testing"

	"tcc/internal/obs"
	"tcc/internal/stm"
)

// newProtoBenchThread returns a real-clock worker running the named
// protocol.
func newProtoBenchThread(tb testing.TB, proto string) *stm.Thread {
	th := stm.NewThread(&stm.RealClock{}, 1)
	if err := th.SetProtocol(proto); err != nil {
		tb.Fatal(err)
	}
	return th
}

// benchProtocols are the non-default protocols benchmarked side by side
// with the TL2 headline benches.
var benchProtocols = []string{"norec", "tl2-eager"}

// BenchmarkSTMProtocolReadOnly4Var is BenchmarkSTMReadOnly4Var per
// protocol: four reads, read-only commit.
func BenchmarkSTMProtocolReadOnly4Var(b *testing.B) {
	for _, proto := range benchProtocols {
		b.Run(proto, func(b *testing.B) {
			var vars [4]*stm.Var[int]
			for i := range vars {
				vars[i] = stm.NewVar(i)
			}
			th := newProtoBenchThread(b, proto)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomic(func(tx *stm.Tx) error {
					for _, v := range vars {
						v.Get(tx)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkSTMProtocolSmallWriteSet is BenchmarkSTMSmallWriteSet per
// protocol: a 4-var read-modify-write with the write set inline.
func BenchmarkSTMProtocolSmallWriteSet(b *testing.B) {
	for _, proto := range benchProtocols {
		b.Run(proto, func(b *testing.B) {
			var vars [4]*stm.Var[int]
			for i := range vars {
				vars[i] = stm.NewVar(i)
			}
			th := newProtoBenchThread(b, proto)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = th.Atomic(func(tx *stm.Tx) error {
					for _, v := range vars {
						v.Set(tx, v.Get(tx)+1)
					}
					return nil
				})
			}
		})
	}
}

// TestProtocolReadOnlyAllocationGuardrail pins the read-only budget for
// every alternative protocol to the TL2 budget (1 object of pool-growth
// slack). NOrec's recorded box
// pointers ride the existing read-set entries; nothing new may touch
// the heap.
func TestProtocolReadOnlyAllocationGuardrail(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	for _, proto := range benchProtocols {
		t.Run(proto, func(t *testing.T) {
			var vars [4]*stm.Var[int]
			for i := range vars {
				vars[i] = stm.NewVar(i)
			}
			th := newProtoBenchThread(t, proto)
			run := func() {
				_ = th.Atomic(func(tx *stm.Tx) error {
					for _, v := range vars {
						v.Get(tx)
					}
					return nil
				})
			}
			run() // warm the Tx/level pools
			if got := testing.AllocsPerRun(100, run); got > 1 {
				t.Fatalf("%s read-only 4-var transaction allocates %.1f objects/run, budget is 1", proto, got)
			}
		})
	}
}

// TestProtocolSmallWriteAllocationGuardrail pins the write-path budget
// for every alternative protocol to the TL2 budget (8 objects: 4 Set
// boxings + 4 install boxes). Eager TL2's Set-time acquisition
// must reuse the Tx-recycled eagerLocks slice after warmup.
func TestProtocolSmallWriteAllocationGuardrail(t *testing.T) {
	if obs.Active() != nil {
		t.Fatal("guardrail requires tracing disabled")
	}
	for _, proto := range benchProtocols {
		t.Run(proto, func(t *testing.T) {
			var vars [4]*stm.Var[int]
			for i := range vars {
				vars[i] = stm.NewVar(i)
			}
			th := newProtoBenchThread(t, proto)
			run := func() {
				_ = th.Atomic(func(tx *stm.Tx) error {
					for _, v := range vars {
						v.Set(tx, v.Get(tx)+1)
					}
					return nil
				})
			}
			run()
			if got := testing.AllocsPerRun(1000, run); got > 8 {
				t.Fatalf("%s 4-var write transaction allocates %.1f objects/run, budget is 8", proto, got)
			}
		})
	}
}
