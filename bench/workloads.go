package main

// The four workloads of record. Each is one long transaction shape: a
// plan is drawn from the worker's RNG before the transaction starts (so
// a retry replays the same operations), the body performs the plan's
// collection operations with think time between them, and what the final
// attempt observed is folded into the worker's tally for the invariant
// check that closes every pass.

import (
	"errors"
	"fmt"
	"math/rand"

	"tcc/internal/harness"
	"tcc/internal/stm"
)

// thinkRounds is the think time between collection operations: that many
// rounds of an xorshift spin (about a microsecond of pure CPU) on real
// goroutines and the same number of virtual cycles on the simulator, so
// one body serves both platforms.
const thinkRounds = 600

// errInsufficient is the one expected abort: a compound-hot transfer
// that would overdraw its source account.
var errInsufficient = errors.New("insufficient balance")

// tally is what committed transactions observed, summed per worker and
// then over workers; the invariant checks compare it with final state.
type tally struct {
	txs      int64 // transactions completed, expected aborts included
	aborts   int64 // expected aborts (errInsufficient)
	netIns   int64 // inserts minus removes, from Put/Remove return values
	puts     int64 // queue items put
	polls    int64 // queue items polled
	consumes int64 // counter increments
	opened   int64 // balance created by opened accounts
	closed   int64 // balance removed by closed accounts
	bad      int64 // observations that contradict an invariant
}

func (t *tally) add(o tally) {
	t.txs += o.txs
	t.aborts += o.aborts
	t.netIns += o.netIns
	t.puts += o.puts
	t.polls += o.polls
	t.consumes += o.consumes
	t.opened += o.opened
	t.closed += o.closed
	t.bad += o.bad
}

// worker is one closed-loop client: the platform's worker plus the
// driver's per-worker state. Nothing here is shared between workers.
type worker struct {
	*harness.Worker
	ex   executor
	spin uint64
	// n counts transactions issued; plans use it for their fixed
	// cadences (every 4th, 1 in 16).
	n int
	// rec is nil except in the traced pass.
	rec *spanRec
	// pend is written by every attempt and folded into tally only when
	// the transaction completes, so retried attempts leave no mark.
	pend, tally tally
	// failed counts transactions that returned an unexpected error.
	failed int64
	// lat holds per-transaction latencies in ns; preallocated, and
	// samples beyond its capacity are dropped rather than grown into.
	lat []uint32
	// scan state for the preallocated Scan callback.
	scanLo, scanHi, scanPrev int
}

func newWorker(hw *harness.Worker, ex executor) *worker {
	return &worker{Worker: hw, ex: ex, spin: uint64(hw.Index)*0x9e3779b97f4a7c15 + 1}
}

// xorshift runs the spin both think and host.calib_ns are made of: a
// dependent chain the compiler cannot shorten. x must not be 0.
func xorshift(x uint64, rounds int) uint64 {
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// think burns thinkRounds of CPU and charges as many virtual cycles.
func (w *worker) think() {
	var t0 int64
	if w.rec != nil {
		t0 = nanos()
	}
	w.spin = xorshift(w.spin, thinkRounds)
	if w.rec != nil {
		w.rec.think += nanos() - t0
	}
	w.Compute(thinkRounds)
}

// finish folds the final attempt's observations after run returned err.
func (w *worker) finish(err error) {
	switch {
	case err == nil:
		w.tally.add(w.pend)
	case errors.Is(err, errInsufficient):
		w.tally.aborts++
	default:
		w.failed++
	}
	w.tally.txs++
}

// scanCheck is the Scan callback: ascending, inside the bounds, value
// equal to key.
func (w *worker) scanCheck(k, v int) bool {
	if k <= w.scanPrev || k < w.scanLo || k >= w.scanHi || v != k {
		w.pend.bad++
	}
	w.scanPrev = k
	return true
}

// instance is one workload's state on one layer.
type instance interface {
	// populate builds the initial state through transactions.
	populate() error
	// runner returns w's step function: draw one plan, run it as one
	// transaction, fold the result. Everything a step needs is
	// allocated here, so the driver adds no allocation per transaction.
	runner(w *worker) func()
	// check verifies the workload's invariants against the tally of
	// every transaction run since populate. It consumes the state.
	check(t tally) error
}

// workloadDef names a workload and builds instances of it.
type workloadDef struct {
	name, why string
	shape     shape
	build     func(st stores) instance
}

// newInstance builds the workload's state on a layer, with the executor
// its workers run transactions through.
func (d workloadDef) newInstance(lay layer, pl harness.Platform, recs []*spanRec) (instance, executor) {
	st := newStores(lay, pl, d.shape)
	if recs != nil {
		st = tracedStores(st, recs)
	}
	return d.build(st), st.ex
}

var workloads = []workloadDef{
	{
		name:  "map-long",
		why:   "8 commuting Get/Put/Remove on a 16-stripe map with think between them, every 4th transaction read-only: the cost is the semantic wrapper itself",
		shape: shape{stripes: 16, ranges: 1, lanes: 1, sortedKeys: 1},
		build: func(st stores) instance { return &mapLong{ex: st.ex, m: st.m} },
	},
	{
		name:  "sorted-scan",
		why:   "point operations plus a 16-key SubMap scan and occasional FirstKey/LastKey on an 8-range-stripe sorted map: range tables, stripe walks and iterator merge do the work",
		shape: shape{stripes: 1, ranges: 8, lanes: 1, sortedKeys: sortedScanKeys},
		build: func(st stores) instance { return &sortedScan{ex: st.ex, m: st.sorted} },
	},
	{
		name:  "queue-pipeline",
		why:   "Poll, think, 0-2 Puts, Counter.Add on a 4-lane queue: the shortest transaction, dominated by stm begin/commit, guard take and the handler window",
		shape: shape{stripes: 1, ranges: 1, lanes: 4, sortedKeys: 1},
		build: func(st stores) instance { return &queuePipeline{ex: st.ex, q: st.queue, c: st.counter} },
	},
	{
		name:  "compound-hot",
		why:   "Zipf-hot transfers, account open/close, auditors and consumers over a 1-stripe map, sorted map and queue: writes beside reads, real lost work, user aborts",
		shape: shape{stripes: 1, ranges: 1, lanes: 1, sortedKeys: hotAccounts},
		build: func(st stores) instance {
			return &compoundHot{ex: st.ex, acc: st.m, idx: st.sorted, log: st.queue}
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// populateKeys inserts every even key of [0, keys) mapped to itself, 64
// per transaction.
func populateKeys(ex executor, m mapStore, keys int) error {
	for lo := 0; lo < keys; lo += 128 {
		err := ex.setup(func(tx *stm.Tx) error {
			for k := lo; k < lo+128 && k < keys; k += 2 {
				m.Put(tx, k, k)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkKeys verifies, for a map whose values equal their keys, that the
// present keys number initial+netIns and that Size agrees.
func checkKeys(ex executor, m mapStore, keys int, initial, netIns int64) error {
	var present, size int64
	var wrong int
	for lo := 0; lo < keys; lo += 512 {
		err := ex.setup(func(tx *stm.Tx) error {
			for k := lo; k < lo+512 && k < keys; k++ {
				if v, ok := m.Get(tx, k); ok {
					present++
					if v != k {
						wrong++
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := ex.setup(func(tx *stm.Tx) error { size = int64(m.Size(tx)); return nil }); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d values differ from their keys", wrong)
	}
	if present != initial+netIns || size != present {
		return fmt.Errorf("present=%d size=%d, want initial %d + net inserts %d", present, size, initial, netIns)
	}
	return nil
}

// ---- map-long ----

const (
	mapLongKeys = 4096
	mapLongOps  = 8
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opRemove
	opCeiling
)

type mapLongPlan struct {
	readOnly bool
	kind     [mapLongOps]opKind
	key      [mapLongOps]int
}

// drawMapLong draws transaction number n of a worker: 8 operations
// 80/10/10 Get/Put/Remove on uniform keys; every 4th is 8 Gets.
func drawMapLong(rng *rand.Rand, n int) (p mapLongPlan) {
	p.readOnly = n%4 == 3
	for i := range p.kind {
		p.key[i] = rng.Intn(mapLongKeys)
		r := rng.Intn(100)
		switch {
		case p.readOnly || r < 80:
			p.kind[i] = opGet
		case r < 90:
			p.kind[i] = opPut
		default:
			p.kind[i] = opRemove
		}
	}
	return p
}

type mapLong struct {
	ex executor
	m  mapStore
}

func (s *mapLong) populate() error { return populateKeys(s.ex, s.m, mapLongKeys) }

func (s *mapLong) runner(w *worker) func() {
	var p mapLongPlan
	body := func(tx *stm.Tx) error {
		w.pend = tally{}
		for i, kind := range p.kind {
			k := p.key[i]
			switch kind {
			case opGet:
				if v, ok := s.m.Get(tx, k); ok && v != k {
					w.pend.bad++
				}
			case opPut:
				if _, had := s.m.Put(tx, k, k); !had {
					w.pend.netIns++
				}
			default:
				if _, had := s.m.Remove(tx, k); had {
					w.pend.netIns--
				}
			}
			w.think()
		}
		return nil
	}
	return func() {
		p = drawMapLong(w.RNG, w.n)
		w.n++
		w.finish(w.run(p.readOnly, body))
	}
}

func (s *mapLong) check(t tally) error {
	if t.bad > 0 {
		return fmt.Errorf("%d Gets returned a value other than the key", t.bad)
	}
	return checkKeys(s.ex, s.m, mapLongKeys, mapLongKeys/2, t.netIns)
}

// ---- sorted-scan ----

const (
	sortedScanKeys = 8192
	sortedScanOps  = 4
	sortedScanSpan = 16
)

type sortedScanPlan struct {
	kind      [sortedScanOps]opKind
	key       [sortedScanOps]int
	scanLo    int
	endpoints bool
}

// drawSortedScan draws 4 operations 60/10/15/15 Get/CeilingKey/Put/
// Remove, the low bound of one 16-key scan, and FirstKey+LastKey on 1
// transaction in 16.
func drawSortedScan(rng *rand.Rand, n int) (p sortedScanPlan) {
	for i := range p.kind {
		p.key[i] = rng.Intn(sortedScanKeys)
		r := rng.Intn(100)
		switch {
		case r < 60:
			p.kind[i] = opGet
		case r < 70:
			p.kind[i] = opCeiling
		case r < 85:
			p.kind[i] = opPut
		default:
			p.kind[i] = opRemove
		}
	}
	p.scanLo = rng.Intn(sortedScanKeys - sortedScanSpan)
	p.endpoints = n%16 == 15
	return p
}

type sortedScan struct {
	ex executor
	m  sortedStore
}

func (s *sortedScan) populate() error { return populateKeys(s.ex, s.m, sortedScanKeys) }

func (s *sortedScan) runner(w *worker) func() {
	var p sortedScanPlan
	scan := w.scanCheck
	body := func(tx *stm.Tx) error {
		w.pend = tally{}
		for i, kind := range p.kind {
			k := p.key[i]
			switch kind {
			case opGet:
				if v, ok := s.m.Get(tx, k); ok && v != k {
					w.pend.bad++
				}
			case opCeiling:
				if c, ok := s.m.CeilingKey(tx, k); ok && c < k {
					w.pend.bad++
				}
			case opPut:
				if _, had := s.m.Put(tx, k, k); !had {
					w.pend.netIns++
				}
			default:
				if _, had := s.m.Remove(tx, k); had {
					w.pend.netIns--
				}
			}
			w.think()
		}
		w.scanLo, w.scanHi, w.scanPrev = p.scanLo, p.scanLo+sortedScanSpan, -1
		s.m.Scan(tx, w.scanLo, w.scanHi, scan)
		w.think()
		if p.endpoints {
			first, ok1 := s.m.FirstKey(tx)
			last, ok2 := s.m.LastKey(tx)
			if ok1 && ok2 && first > last {
				w.pend.bad++
			}
		}
		return nil
	}
	return func() {
		p = drawSortedScan(w.RNG, w.n)
		w.n++
		w.finish(w.run(false, body))
	}
}

func (s *sortedScan) check(t tally) error {
	if t.bad > 0 {
		return fmt.Errorf("%d observations out of order, out of bounds or with a wrong value", t.bad)
	}
	return checkKeys(s.ex, s.m, sortedScanKeys, sortedScanKeys/2, t.netIns)
}

// ---- queue-pipeline ----

const queueSeeded = 1024

type queuePlan struct {
	puts int
	item [2]int
}

// drawQueue draws how many items the transaction puts after its Poll:
// 0/1/2 at 30/40/30 %.
func drawQueue(rng *rand.Rand) (p queuePlan) {
	r := rng.Intn(100)
	switch {
	case r < 30:
		p.puts = 0
	case r < 70:
		p.puts = 1
	default:
		p.puts = 2
	}
	p.item[0], p.item[1] = rng.Int(), rng.Int()
	return p
}

type queuePipeline struct {
	ex executor
	q  queueStore
	c  counterStore
}

func (s *queuePipeline) populate() error {
	for lo := 0; lo < queueSeeded; lo += 64 {
		err := s.ex.setup(func(tx *stm.Tx) error {
			for i := lo; i < lo+64; i++ {
				s.q.Put(tx, i)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *queuePipeline) runner(w *worker) func() {
	var p queuePlan
	body := func(tx *stm.Tx) error {
		w.pend = tally{consumes: 1}
		puts := p.puts
		if _, ok := s.q.Poll(tx); ok {
			w.pend.polls = 1
		} else {
			puts = 2 // an empty queue is refilled
		}
		w.think()
		for i := 0; i < puts; i++ {
			s.q.Put(tx, p.item[i])
		}
		w.pend.puts = int64(puts)
		w.think()
		s.c.Add(tx, 1)
		return nil
	}
	return func() {
		p = drawQueue(w.RNG)
		w.n++
		w.finish(w.run(false, body))
	}
}

// drain polls the queue empty, 64 items per transaction.
func drain(ex executor, q queueStore) (int64, error) {
	var drained int64
	for empty := false; !empty; {
		err := ex.setup(func(tx *stm.Tx) error {
			n := int64(0)
			for ; n < 64; n++ {
				if _, ok := q.Poll(tx); !ok {
					empty = true
					break
				}
			}
			drained += n
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return drained, nil
}

func (s *queuePipeline) check(t tally) error {
	drained, err := drain(s.ex, s.q)
	if err != nil {
		return err
	}
	if want := queueSeeded + t.puts - t.polls; drained != want {
		return fmt.Errorf("drained %d items, want seeded %d + puts %d - polls %d = %d", drained, queueSeeded, t.puts, t.polls, want)
	}
	var count int64
	if err := s.ex.setup(func(tx *stm.Tx) error { count = s.c.Get(tx); return nil }); err != nil {
		return err
	}
	if count != t.consumes {
		return fmt.Errorf("counter %d, want %d committed transactions", count, t.consumes)
	}
	return nil
}

// ---- compound-hot ----

const (
	hotAccounts   = 1024
	hotBalance    = 8
	hotZipfS      = 1.1
	hotMaxPolls   = 3
	hotCloseOneIn = 8
)

type hotKind uint8

const (
	hotTransfer hotKind = iota
	hotToggle
	hotAudit
	hotConsume
)

type hotPlan struct {
	kind   hotKind
	a, b   int
	amount int
	close  bool
}

// drawHot draws one compound-hot transaction: 50 % transfer, 20 %
// open/close, 10 % audit, 20 % consume, on Zipf-distributed accounts.
func drawHot(rng *rand.Rand, zipf *rand.Zipf) (p hotPlan) {
	r := rng.Intn(100)
	switch {
	case r < 50:
		p.kind = hotTransfer
	case r < 70:
		p.kind = hotToggle
	case r < 80:
		p.kind = hotAudit
	default:
		p.kind = hotConsume
	}
	p.a, p.b = int(zipf.Uint64()), int(zipf.Uint64())
	if p.b == p.a {
		p.b = (p.a + 1) % hotAccounts
	}
	p.amount = 1 + rng.Intn(4)
	p.close = rng.Intn(hotCloseOneIn) == 0
	return p
}

// compoundHot is a small bank: acc maps account to balance, idx is a
// sorted index of open accounts (value = key), log queues one record per
// transfer. Open/close keeps about 8 accounts in 9 open: an absent
// account is opened, a present one is closed 1 time in 8 and otherwise
// rewritten unchanged.
type compoundHot struct {
	ex  executor
	acc mapStore
	idx sortedStore
	log queueStore
}

func (s *compoundHot) populate() error {
	for lo := 0; lo < hotAccounts; lo += 64 {
		err := s.ex.setup(func(tx *stm.Tx) error {
			for k := lo; k < lo+64; k++ {
				s.acc.Put(tx, k, hotBalance)
				s.idx.Put(tx, k, k)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *compoundHot) runner(w *worker) func() {
	var p hotPlan
	zipf := rand.NewZipf(w.RNG, hotZipfS, 1, hotAccounts-1)
	body := func(tx *stm.Tx) error {
		w.pend = tally{}
		switch p.kind {
		case hotTransfer:
			from, okA := s.acc.Get(tx, p.a)
			to, okB := s.acc.Get(tx, p.b)
			w.think()
			if !okA || !okB {
				return nil // a closed account: nothing to move
			}
			if from < p.amount {
				return s.ex.abort(tx, errInsufficient)
			}
			s.acc.Put(tx, p.a, from-p.amount)
			s.acc.Put(tx, p.b, to+p.amount)
			w.think()
			s.log.Put(tx, p.a<<16|p.b)
			w.pend.puts = 1
		case hotToggle:
			bal, open := s.acc.Get(tx, p.a)
			w.think()
			switch {
			case !open:
				s.acc.Put(tx, p.a, hotBalance)
				s.idx.Put(tx, p.a, p.a)
				w.pend.opened = hotBalance
			case p.close:
				s.acc.Remove(tx, p.a)
				s.idx.Remove(tx, p.a)
				w.pend.closed = int64(bal)
			default:
				s.acc.Put(tx, p.a, bal)
				s.idx.Put(tx, p.a, p.a)
			}
			w.think()
		case hotAudit:
			if n := s.acc.Size(tx); n < 0 || n > hotAccounts {
				w.pend.bad++
			}
			w.think()
			if k, ok := s.idx.FirstKey(tx); ok && (k < 0 || k >= hotAccounts) {
				w.pend.bad++
			}
			w.think()
			s.log.Peek(tx)
		default:
			for i := 0; i < hotMaxPolls; i++ {
				rec, ok := s.log.Poll(tx)
				if !ok {
					break
				}
				w.pend.polls++
				if c, ok := s.idx.CeilingKey(tx, rec&0xffff); ok && c < rec&0xffff {
					w.pend.bad++
				}
				w.think()
			}
		}
		return nil
	}
	return func() {
		p = drawHot(w.RNG, zipf)
		w.n++
		w.finish(w.run(false, body))
	}
}

func (s *compoundHot) check(t tally) error {
	if t.bad > 0 {
		return fmt.Errorf("%d observations out of range", t.bad)
	}
	var sum, open int64
	var mismatched int
	err := s.ex.setup(func(tx *stm.Tx) error {
		for k := 0; k < hotAccounts; k++ {
			bal, inAcc := s.acc.Get(tx, k)
			v, inIdx := s.idx.Get(tx, k)
			if inAcc != inIdx || inIdx && v != k || bal < 0 {
				mismatched++
			}
			if inAcc {
				sum += int64(bal)
				open++
			}
		}
		if int64(s.acc.Size(tx)) != open || int64(s.idx.Size(tx)) != open {
			mismatched++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if mismatched > 0 {
		return fmt.Errorf("%d accounts differ between map and sorted index, or are overdrawn", mismatched)
	}
	// An aborted transfer wrote nothing, so balances only change by
	// what open and close moved in and out.
	if want := hotAccounts*hotBalance + t.opened - t.closed; sum != want {
		return fmt.Errorf("balances sum to %d, want %d", sum, want)
	}
	drained, err := drain(s.ex, s.log)
	if err != nil {
		return err
	}
	if want := t.puts - t.polls; drained != want {
		return fmt.Errorf("drained %d transfer records, want puts %d - polls %d = %d", drained, t.puts, t.polls, want)
	}
	return nil
}
