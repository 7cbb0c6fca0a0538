package harness

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/stm"
)

// SustainedResult is what one RunSustained call measured.
type SustainedResult struct {
	Workers int
	Elapsed time.Duration
	// Ops counts completed operations across workers.
	Ops uint64
	// Stats aggregates transactional events across workers.
	Stats stm.Stats
}

// RunSustained drives a contended session-store workload — a striped
// TransactionalMap under a mixed Get/Put/Remove/Size load — on real
// goroutines until stop closes. It is the long-running mode behind
// `tccbench -metrics-addr`: a live process the metrics plane can be
// scraped from, generating commits, memory aborts, semantic
// violations (Size readers vs writers) and snapshot reads
// continuously.
//
// Workers run under runtime/pprof labels (workload, collection,
// reads=snapshot|retry), so CPU profiles taken while the load runs
// attribute to the same names the metrics use. Even-indexed workers
// perform lookups on the MVCC-lite snapshot path, odd-indexed workers
// on the retry path.
func RunSustained(workers int, seed int64, stop <-chan struct{}) SustainedResult {
	if workers <= 0 {
		workers = 4
	}
	const (
		keySpace    = 128
		prepopulate = 64
		name        = "sessions"
	)
	m := core.NewStripedTransactionalMap(func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, core.DefaultStripes)
	m.SetName(name)
	populated(setupThread(), m, 0, prepopulate)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var agg stm.Stats
	var ops atomic.Uint64
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snapshotReads := i%2 == 0
			mode := "retry"
			if snapshotReads {
				mode = "snapshot"
			}
			w := newWorker(i, &stm.RealClock{}, seed, "")
			labels := pprof.Labels(
				"workload", "sustained",
				"collection", name,
				"reads", mode,
				"worker", strconv.Itoa(i),
			)
			pprof.Do(context.Background(), labels, func(context.Context) {
				n := uint64(0)
				for {
					select {
					case <-stop:
						ops.Add(n)
						mu.Lock()
						agg.Add(w.Thread.Stats)
						mu.Unlock()
						return
					default:
					}
					sustainedOp(w, m, keySpace, snapshotReads)
					n++
				}
			})
		}(i)
	}
	wg.Wait()
	return SustainedResult{
		Workers: workers,
		Elapsed: time.Since(start),
		Ops:     ops.Load(),
		Stats:   agg,
	}
}

// sustainedOp performs one drawn operation: 70% lookups (snapshot or
// retry path per worker), 15% puts, 10% removes, 5% whole-map Size
// reads — the Size share is what keeps semantic violations flowing
// (Table 2: size conflicts with any insert or remove).
func sustainedOp(w *Worker, m *core.TransactionalMap[int, int], keySpace int, snapshotReads bool) {
	k := w.RNG.Intn(keySpace)
	r := w.RNG.Intn(100)
	switch {
	case r < 70:
		body := func(tx *stm.Tx) error {
			m.Get(tx, k)
			return nil
		}
		if snapshotReads {
			MustAtomicRead(w.Thread, body)
		} else {
			MustAtomic(w.Thread, body)
		}
	case r < 85:
		MustAtomic(w.Thread, func(tx *stm.Tx) error {
			m.Put(tx, k, r)
			return nil
		})
	case r < 95:
		MustAtomic(w.Thread, func(tx *stm.Tx) error {
			m.Remove(tx, k)
			return nil
		})
	default:
		MustAtomic(w.Thread, func(tx *stm.Tx) error {
			m.Size(tx)
			return nil
		})
	}
}
