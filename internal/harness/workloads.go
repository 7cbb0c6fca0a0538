package harness

import (
	"tcc/internal/collections"
	"tcc/internal/core"
	"tcc/internal/stm"
	"tcc/internal/stmcol"
)

// MapBenchParams parameterizes the TestMap / TestSortedMap /
// TestCompound micro-benchmarks (paper §6.2): a mixture of 80% lookups,
// 10% insertions and 10% removals against a single shared map, each
// operation surrounded by computation to emulate access from within
// long-running transactions.
type MapBenchParams struct {
	// TotalOps is the fixed amount of work divided among workers
	// (strong scaling, as in the paper's fixed-size benchmarks).
	TotalOps int
	// Compute is the cycles of surrounding computation per operation.
	Compute uint64
	// KeySpace is the number of distinct keys; Prepopulate of them are
	// inserted before measurement.
	KeySpace    int
	Prepopulate int
	// ReadPct and PutPct split the operation mix (the remainder are
	// removals).
	ReadPct, PutPct int
	// RangeSpan is the width of TestSortedMap's subMap range lookups.
	RangeSpan int
}

// DefaultMapParams returns the parameters used for the figures.
func DefaultMapParams() MapBenchParams {
	return MapBenchParams{
		TotalOps:    4096,
		Compute:     2000,
		KeySpace:    512,
		Prepopulate: 256,
		ReadPct:     80,
		PutPct:      10,
		RangeSpan:   8,
	}
}

// opKind is one drawn operation.
type opKind int

const (
	opRead opKind = iota
	opPut
	opRemove
)

func (p MapBenchParams) drawOp(w *Worker) (opKind, int) {
	k := w.RNG.Intn(p.KeySpace)
	r := w.RNG.Intn(100)
	switch {
	case r < p.ReadPct:
		return opRead, k
	case r < p.ReadPct+p.PutPct:
		return opPut, k
	default:
		return opRemove, k
	}
}

// Config is one benchmark configuration (one line in a figure): Setup
// builds fresh shared state on the platform and returns the per-worker
// operation executor.
type Config struct {
	Name  string
	Setup func(pl Platform) func(w *Worker)
}

// setupThread returns a throwaway transactional thread for
// pre-measurement population of transactional structures.
func setupThread() *stm.Thread { return stm.NewThread(&stm.RealClock{}, 12345) }

// MustAtomic runs fn as a top-level transaction and panics on error.
// The benchmark bodies never return errors and never call tx.Abort, so
// an error here is a harness bug; panicking loudly beats the silent
// `_ =` discard that would let a rolled-back transaction count as a
// completed operation.
func MustAtomic(th *stm.Thread, fn func(tx *stm.Tx) error) {
	if err := th.Atomic(fn); err != nil {
		panic(err)
	}
}

// MustAtomicRead runs fn as a read-only snapshot transaction (MVCC-lite
// path) and panics on error, mirroring MustAtomic for the read side of
// read-mostly workloads.
func MustAtomicRead(th *stm.Thread, fn func(tx *stm.Tx) error) {
	if err := th.AtomicRead(fn); err != nil {
		panic(err)
	}
}

// txMap is what the transactional-map configurations need of their map:
// the Atomos baseline (every field an stm.Var) and the semantic wrapper
// run the same transaction bodies.
type txMap interface {
	Get(tx *stm.Tx, k int) (int, bool)
	Put(tx *stm.Tx, k, v int) (int, bool)
	Remove(tx *stm.Tx, k int) (int, bool)
}

func atomosHashMap() txMap { return stmcol.NewHashMap[int, int]() }

func transactionalMap() txMap {
	return core.NewTransactionalMap[int, int](collections.NewHashMap[int, int]())
}

func stripedTransactionalMap() txMap {
	return core.NewStripedTransactionalMap[int, int](func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, core.DefaultStripes)
}

// populated maps base+i to i for every i < n in one pre-measurement
// transaction on th (a setupThread) and returns m.
func populated(th *stm.Thread, m txMap, base, n int) txMap {
	MustAtomic(th, func(tx *stm.Tx) error {
		for i := 0; i < n; i++ {
			m.Put(tx, base+i, i)
		}
		return nil
	})
	return m
}

// mapOpTx runs one drawn operation on m inside the paper's long
// transaction: half the surrounding computation, the operation, the
// other half. With snapshotReads a lookup runs as an AtomicRead.
func (p MapBenchParams) mapOpTx(w *Worker, m txMap, op opKind, k int, snapshotReads bool) {
	body := func(tx *stm.Tx) error {
		w.Compute(p.Compute / 2)
		switch op {
		case opRead:
			m.Get(tx, k)
		case opPut:
			m.Put(tx, k, k)
		default:
			m.Remove(tx, k)
		}
		w.Compute(p.Compute / 2)
		return nil
	}
	if snapshotReads && op == opRead {
		MustAtomicRead(w.Thread, body)
	} else {
		MustAtomic(w.Thread, body)
	}
}

// txMapSetup is the Setup of a configuration that draws operations
// against one shared transactional map: a prepopulated map from newMap,
// one mapOpTx per operation.
func (p MapBenchParams) txMapSetup(newMap func() txMap, snapshotReads bool) func(pl Platform) func(w *Worker) {
	return func(Platform) func(w *Worker) {
		m := populated(setupThread(), newMap(), 0, p.Prepopulate)
		return func(w *Worker) {
			op, k := p.drawOp(w)
			p.mapOpTx(w, m, op, k, snapshotReads)
		}
	}
}

// ReadRatioParams returns the figure parameters with the lookup share
// raised to readPct (puts and removes split the remainder evenly) —
// the read-mostly regimes of figures 6 and 7.
func ReadRatioParams(readPct int) MapBenchParams {
	p := DefaultMapParams()
	p.ReadPct = readPct
	p.PutPct = (100 - readPct + 1) / 2
	return p
}

// ReadRatioConfigs builds the snapshot-read sweep (figures 6 and 7):
// the Figure 1 workload at a read-heavy mix, with each structure run
// twice — lookups as ordinary retry-path transactions versus lookups as
// MVCC-lite snapshot transactions (Thread.AtomicRead). Writes always
// use the retry path. The gap between the paired lines is what the
// snapshot path buys: read transactions that never CAS a lockword,
// never take a semantic lock, and never abort, so at 90–99% reads the
// writers' commits are the only contention left.
func ReadRatioConfigs(p MapBenchParams) []Config {
	return []Config{
		{Name: "Atomos HashMap (retry reads)", Setup: p.txMapSetup(atomosHashMap, false)},
		{Name: "Atomos HashMap (snapshot reads)", Setup: p.txMapSetup(atomosHashMap, true)},
		{Name: "TransactionalMap (retry reads)", Setup: p.txMapSetup(stripedTransactionalMap, false)},
		{Name: "TransactionalMap (snapshot reads)", Setup: p.txMapSetup(stripedTransactionalMap, true)},
	}
}

// TestMapConfigs builds the three Figure 1 configurations: Java HashMap
// (coarse lock per operation), Atomos HashMap (STM-instrumented map
// accessed directly inside the long transaction), and Atomos
// TransactionalMap (the wrapper).
func TestMapConfigs(p MapBenchParams) []Config {
	return []Config{
		{
			Name: "Java HashMap",
			Setup: func(pl Platform) func(w *Worker) {
				m := collections.NewHashMap[int, int]()
				for i := 0; i < p.Prepopulate; i++ {
					m.Put(i, i)
				}
				lock := pl.NewLock()
				return func(w *Worker) {
					op, k := p.drawOp(w)
					w.Compute(p.Compute / 2)
					lock.Lock(w)
					w.Compute(core.DefaultOpCost)
					switch op {
					case opRead:
						m.Get(k)
					case opPut:
						m.Put(k, k)
					default:
						m.Remove(k)
					}
					lock.Unlock(w)
					w.Compute(p.Compute / 2)
				}
			},
		},
		{Name: "Atomos HashMap", Setup: p.txMapSetup(atomosHashMap, false)},
		{Name: "Atomos TransactionalMap", Setup: p.txMapSetup(transactionalMap, false)},
	}
}

// DisjointMapConfigs builds the commit-guard sharding pair: the same
// 80/10/10 operation mix run against one shared TransactionalMap
// (every commit carries the same guard, and the keyspace is shared, so
// transactions both conflict and queue) versus per-worker private maps
// (pairwise-disjoint guard footprints and keyspaces, so commits neither
// conflict nor serialize). The gap between the two lines at high CPU
// counts is the workload-level view of what the per-collection guards
// buy: under the old global commit guard the per-worker line was still
// bounded by one lock shared with everyone else's handlers.
func DisjointMapConfigs(p MapBenchParams) []Config {
	// One map per possible worker; DefaultCPUs tops out at 32.
	const maxWorkers = 64
	return []Config{
		{Name: "Shared TransactionalMap", Setup: p.txMapSetup(transactionalMap, false)},
		{
			Name: "Per-worker TransactionalMap",
			Setup: func(pl Platform) func(w *Worker) {
				th := setupThread()
				maps := make([]txMap, maxWorkers)
				for i := range maps {
					maps[i] = populated(th, transactionalMap(), 0, p.Prepopulate)
				}
				return func(w *Worker) {
					op, k := p.drawOp(w)
					p.mapOpTx(w, maps[w.Index%maxWorkers], op, k, false)
				}
			},
		},
	}
}

// TestSortedMapConfigs builds the Figure 2 configurations: lookups are
// replaced by subMap range scans that take the median key of the
// returned range (paper §6.2).
func TestSortedMapConfigs(p MapBenchParams) []Config {
	// Range starts stay clear of the keyspace's top so [k, k+span) is
	// well formed.
	rangeStart := func(w *Worker, k int) int {
		if k >= p.KeySpace-p.RangeSpan {
			k = p.KeySpace - p.RangeSpan - 1
		}
		return k
	}
	return []Config{
		{
			Name: "Java TreeMap",
			Setup: func(pl Platform) func(w *Worker) {
				m := collections.NewTreeMap[int, int]()
				for i := 0; i < p.Prepopulate; i++ {
					m.Put(i*2, i)
				}
				lock := pl.NewLock()
				return func(w *Worker) {
					op, k := p.drawOp(w)
					w.Compute(p.Compute / 2)
					lock.Lock(w)
					w.Compute(core.DefaultOpCost)
					switch op {
					case opRead:
						lo := rangeStart(w, k)
						hi := lo + p.RangeSpan
						var keys []int
						m.AscendRange(&lo, &hi, func(kk, _ int) bool {
							keys = append(keys, kk)
							return true
						})
						if len(keys) > 0 {
							_ = keys[len(keys)/2] // median key
						}
					case opPut:
						m.Put(k, k)
					default:
						m.Remove(k)
					}
					lock.Unlock(w)
					w.Compute(p.Compute / 2)
				}
			},
		},
		{
			Name: "Atomos TreeMap",
			Setup: func(pl Platform) func(w *Worker) {
				m := stmcol.NewTreeMap[int, int]()
				th := setupThread()
				MustAtomic(th, func(tx *stm.Tx) error {
					for i := 0; i < p.Prepopulate; i++ {
						m.Put(tx, i*2, i)
					}
					return nil
				})
				return func(w *Worker) {
					op, k := p.drawOp(w)
					MustAtomic(w.Thread, func(tx *stm.Tx) error {
						w.Compute(p.Compute / 2)
						switch op {
						case opRead:
							lo := rangeStart(w, k)
							hi := lo + p.RangeSpan
							var keys []int
							m.AscendRange(tx, &lo, &hi, func(kk, _ int) bool {
								keys = append(keys, kk)
								return true
							})
							if len(keys) > 0 {
								_ = keys[len(keys)/2]
							}
						case opPut:
							m.Put(tx, k, k)
						default:
							m.Remove(tx, k)
						}
						w.Compute(p.Compute / 2)
						return nil
					})
				}
			},
		},
		{
			Name: "Atomos TransactionalSortedMap",
			Setup: func(pl Platform) func(w *Worker) {
				tm := core.NewTransactionalSortedMap[int, int](collections.NewTreeMap[int, int]())
				th := setupThread()
				MustAtomic(th, func(tx *stm.Tx) error {
					for i := 0; i < p.Prepopulate; i++ {
						tm.Put(tx, i*2, i)
					}
					return nil
				})
				return func(w *Worker) {
					op, k := p.drawOp(w)
					MustAtomic(w.Thread, func(tx *stm.Tx) error {
						w.Compute(p.Compute / 2)
						switch op {
						case opRead:
							lo := rangeStart(w, k)
							view := tm.SubMap(lo, lo+p.RangeSpan)
							keys := view.Keys(tx)
							if len(keys) > 0 {
								_ = keys[len(keys)/2]
							}
						case opPut:
							tm.Put(tx, k, k)
						default:
							tm.Remove(tx, k)
						}
						w.Compute(p.Compute / 2)
						return nil
					})
				}
			},
		},
	}
}

// TestCompoundConfigs builds the Figure 3 configurations: each
// iteration composes two map operations separated by computation. The
// Java version must hold one coarse lock across the whole compound
// operation (including the computation between the two accesses) to
// stay atomic; the Atomos versions run the loop body as one
// transaction.
func TestCompoundConfigs(p MapBenchParams) []Config {
	return []Config{
		{
			Name: "Java HashMap",
			Setup: func(pl Platform) func(w *Worker) {
				m := collections.NewHashMap[int, int]()
				for i := 0; i < p.Prepopulate; i++ {
					m.Put(i, i)
				}
				lock := pl.NewLock()
				return func(w *Worker) {
					k1 := w.RNG.Intn(p.KeySpace)
					k2 := w.RNG.Intn(p.KeySpace)
					w.Compute(p.Compute / 3)
					lock.Lock(w)
					w.Compute(core.DefaultOpCost)
					v, _ := m.Get(k1)
					w.Compute(p.Compute / 3)
					w.Compute(core.DefaultOpCost)
					m.Put(k2, v+1)
					lock.Unlock(w)
					w.Compute(p.Compute / 3)
				}
			},
		},
		{Name: "Atomos HashMap", Setup: p.compoundSetup(atomosHashMap)},
		{Name: "Atomos TransactionalMap", Setup: p.compoundSetup(transactionalMap)},
	}
}

// compoundSetup is the Setup of an Atomos Figure 3 configuration: each
// iteration reads one key and writes another in one transaction, with
// the computation before, between and after the two accesses.
func (p MapBenchParams) compoundSetup(newMap func() txMap) func(pl Platform) func(w *Worker) {
	return func(Platform) func(w *Worker) {
		m := populated(setupThread(), newMap(), 0, p.Prepopulate)
		return func(w *Worker) {
			k1 := w.RNG.Intn(p.KeySpace)
			k2 := w.RNG.Intn(p.KeySpace)
			MustAtomic(w.Thread, func(tx *stm.Tx) error {
				w.Compute(p.Compute / 3)
				v, _ := m.Get(tx, k1)
				w.Compute(p.Compute / 3)
				m.Put(tx, k2, v+1)
				w.Compute(p.Compute / 3)
				return nil
			})
		}
	}
}

// StripedMapConfigs builds the intra-collection striping pair (figure
// 5): ONE shared map in both configurations, with each worker
// transacting over its own disjoint key range. Because no two workers
// ever touch the same key, every cross-worker interaction comes from
// the map's internal structure: the baseline single-guard
// TransactionalMap funnels all commit-handler windows (and the shared
// size counter's lock table) through one guard, while the striped map
// gives disjoint-key writers disjoint stripe guards and per-stripe
// counters, so their critical sections and handler windows never meet.
func StripedMapConfigs(p MapBenchParams) []Config {
	// One key range per possible worker; DefaultCPUs tops out at 32.
	const maxWorkers = 64
	setup := func(newMap func() txMap) func(pl Platform) func(w *Worker) {
		return func(Platform) func(w *Worker) {
			m, th := newMap(), setupThread()
			for r := 0; r < maxWorkers; r++ {
				populated(th, m, r*p.KeySpace, p.Prepopulate)
			}
			return func(w *Worker) {
				op, k := p.drawOp(w)
				// Offset the drawn key into the worker's private range.
				p.mapOpTx(w, m, op, k+(w.Index%maxWorkers)*p.KeySpace, false)
			}
		}
	}
	return []Config{
		{Name: "Single-guard TransactionalMap", Setup: setup(transactionalMap)},
		{Name: "Striped TransactionalMap", Setup: setup(stripedTransactionalMap)},
	}
}
