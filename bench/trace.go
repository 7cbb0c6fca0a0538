package main

// The traced pass. Layers are measured from outside: the driver records a
// span around every call it makes into a layer — a `tx` span around the
// executor call, an `attempt` span from body entry to body exit, one span
// per collection call — into per-worker preallocated buffers, and derives
// the per-layer times from them when the pass ends. End-to-end numbers
// never come from this pass.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"tcc/internal/stm"
)

// spanKind classes spans; call classes double as the per-class p50
// metrics (core.<class>_us).
type spanKind uint8

const (
	spanTx spanKind = iota
	spanAttempt
	spanGet
	spanPut
	spanRemove
	spanSize
	spanNav
	spanScan
	spanQPut
	spanQPoll
	spanQPeek
	spanCounter
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"tx", "attempt", "get", "put", "remove", "size", "nav", "scan", "qput", "qpoll", "qpeek", "counter"}

// epoch is the zero of every timestamp the driver takes.
var epoch = time.Now()

// nanos is monotonic ns since epoch.
func nanos() int64 { return int64(time.Since(epoch)) }

// span is one recorded interval, in ns since epoch. A tx span carries the
// think time spent inside it.
type span struct {
	kind   spanKind
	t0, t1 int64
	think  int64
}

// spanRec is one worker's span buffer. It never grows: when it fills it
// raises `full`, which ends the traced window; the driver raises `full`
// itself when the window ends, so later calls through the wrapped stores
// (the invariant check) record nothing.
type spanRec struct {
	spans []span
	think int64
	full  bool
}

func newSpanRec(capacity int) *spanRec {
	return &spanRec{spans: make([]span, 0, capacity)}
}

// add closes a span opened at t0 and reports whether there was room.
func (r *spanRec) add(kind spanKind, t0 int64) bool {
	if r.full || len(r.spans) == cap(r.spans) {
		r.full = true
		return false
	}
	r.spans = append(r.spans, span{kind: kind, t0: t0, t1: nanos()})
	return true
}

// run executes one transaction body on the worker's layer; in the traced
// pass it also records the tx and attempt spans.
func (w *worker) run(readOnly bool, body func(tx *stm.Tx) error) error {
	if w.rec == nil {
		return w.ex.run(w, readOnly, body)
	}
	r := w.rec
	r.think = 0
	t0 := nanos()
	err := w.ex.run(w, readOnly, func(tx *stm.Tx) error {
		a0 := nanos()
		// A violated attempt leaves the body by panic; defer closes
		// its span too.
		defer r.add(spanAttempt, a0)
		return body(tx)
	})
	if r.add(spanTx, t0) {
		r.spans[len(r.spans)-1].think = r.think
	}
	return err
}

// tracedStores wraps every store so each call records a span on the
// calling worker's recorder, found through the transaction's TraceID.
func tracedStores(st stores, recs []*spanRec) stores {
	st.m = tracedMap{st.m, recs}
	st.sorted = tracedSorted{tracedMap{st.sorted, recs}, st.sorted}
	st.queue = tracedQueue{st.queue, recs}
	st.counter = tracedCounter{st.counter, recs}
	return st
}

func recOf(recs []*spanRec, tx *stm.Tx) *spanRec { return recs[tx.Thread().TraceID] }

type tracedMap struct {
	in   mapStore
	recs []*spanRec
}

func (t tracedMap) Get(tx *stm.Tx, k int) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	v, ok := t.in.Get(tx, k)
	r.add(spanGet, t0)
	return v, ok
}

func (t tracedMap) Put(tx *stm.Tx, k, v int) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	old, ok := t.in.Put(tx, k, v)
	r.add(spanPut, t0)
	return old, ok
}

func (t tracedMap) Remove(tx *stm.Tx, k int) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	old, ok := t.in.Remove(tx, k)
	r.add(spanRemove, t0)
	return old, ok
}

func (t tracedMap) Size(tx *stm.Tx) int {
	r := recOf(t.recs, tx)
	t0 := nanos()
	n := t.in.Size(tx)
	r.add(spanSize, t0)
	return n
}

type tracedSorted struct {
	tracedMap
	in sortedStore
}

func (t tracedSorted) CeilingKey(tx *stm.Tx, k int) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	c, ok := t.in.CeilingKey(tx, k)
	r.add(spanNav, t0)
	return c, ok
}

func (t tracedSorted) FirstKey(tx *stm.Tx) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	k, ok := t.in.FirstKey(tx)
	r.add(spanNav, t0)
	return k, ok
}

func (t tracedSorted) LastKey(tx *stm.Tx) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	k, ok := t.in.LastKey(tx)
	r.add(spanNav, t0)
	return k, ok
}

func (t tracedSorted) Scan(tx *stm.Tx, lo, hi int, fn func(k, v int) bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	t.in.Scan(tx, lo, hi, fn)
	r.add(spanScan, t0)
}

type tracedQueue struct {
	in   queueStore
	recs []*spanRec
}

func (t tracedQueue) Put(tx *stm.Tx, v int) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	t.in.Put(tx, v)
	r.add(spanQPut, t0)
}

func (t tracedQueue) Poll(tx *stm.Tx) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	v, ok := t.in.Poll(tx)
	r.add(spanQPoll, t0)
	return v, ok
}

func (t tracedQueue) Peek(tx *stm.Tx) (int, bool) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	v, ok := t.in.Peek(tx)
	r.add(spanQPeek, t0)
	return v, ok
}

type tracedCounter struct {
	in   counterStore
	recs []*spanRec
}

func (t tracedCounter) Add(tx *stm.Tx, d int64) {
	r := recOf(t.recs, tx)
	t0 := nanos()
	t.in.Add(tx, d)
	r.add(spanCounter, t0)
}

func (t tracedCounter) Get(tx *stm.Tx) int64 { return t.in.Get(tx) }

// traceSummary is what the traced pass derives from its spans. Times are
// medians over transactions (or over calls of one class) in µs; shares
// are sums over all traced transactions.
type traceSummary struct {
	txs         int
	beginUs     float64 // tx start → first body entry
	commitUs    float64 // last body exit → tx return
	wastedShare float64 // time before the last attempt's body entry / tx time
	selfShare   float64 // collection-call spans / tx time
	thinkShare  float64 // think time / tx time
	callUs      [numSpanKinds]float64
	calls       [numSpanKinds]int
}

// summarize walks each worker's spans in recording order: the calls and
// attempts of a transaction precede its tx span.
func summarize(recs []*spanRec) traceSummary {
	var s traceSummary
	var begins, commits []float64
	var perClass [numSpanKinds][]float64
	var txNs, wastedNs, callNs, thinkNs int64
	for _, r := range recs {
		firstA0, lastA0, lastA1 := int64(-1), int64(0), int64(0)
		var calls int64
		for _, sp := range r.spans {
			switch sp.kind {
			case spanAttempt:
				if firstA0 < 0 {
					firstA0 = sp.t0
				}
				lastA0, lastA1 = sp.t0, sp.t1
			case spanTx:
				if firstA0 >= 0 {
					begins = append(begins, float64(firstA0-sp.t0)/1e3)
					commits = append(commits, float64(sp.t1-lastA1)/1e3)
					txNs += sp.t1 - sp.t0
					wastedNs += lastA0 - sp.t0
					callNs += calls
					thinkNs += sp.think
				}
				firstA0, calls = -1, 0
			default:
				d := sp.t1 - sp.t0
				calls += d
				perClass[sp.kind] = append(perClass[sp.kind], float64(d)/1e3)
			}
		}
	}
	s.txs = len(begins)
	if s.txs == 0 {
		return s
	}
	s.beginUs, s.commitUs = median(begins), median(commits)
	s.wastedShare = float64(wastedNs) / float64(txNs)
	s.selfShare = float64(callNs) / float64(txNs)
	s.thinkShare = float64(thinkNs) / float64(txNs)
	for k := range perClass {
		s.calls[k] = len(perClass[k])
		if s.calls[k] > 0 {
			slices.Sort(perClass[k])
			s.callUs[k] = percentileSorted(perClass[k], 50)
		}
	}
	return s
}

// traceFileTxs bounds the trace file: the first that many transactions
// of each worker are written, every span is used for the summary.
const traceFileTxs = 2000

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, one lane
// per worker. Timestamps are integer nanoseconds in the format's
// microsecond field (the repo's other traces put cycles there): read a
// millisecond on the viewer's ruler as a microsecond.
func writeChromeTrace(path, workload string, recs []*spanRec) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + workload + " (ts in ns)"}}}
	for wi, r := range recs {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: wi, Args: map[string]any{"name": "worker " + strconv.Itoa(wi)}})
		txOrdinal, attempt := 0, 0
		for _, sp := range r.spans {
			if txOrdinal == traceFileTxs {
				break
			}
			ev := chromeEvent{Name: spanNames[sp.kind], Cat: "core", Ph: "X", Ts: sp.t0, Dur: sp.t1 - sp.t0, Pid: 1, Tid: wi,
				Args: map[string]any{"worker": wi, "tx": txOrdinal}}
			switch sp.kind {
			case spanAttempt:
				ev.Cat = "stm"
				ev.Args["attempt"] = attempt
				attempt++
			case spanTx:
				ev.Cat = "stm"
				ev.Args["think_ns"] = sp.think
				txOrdinal++
				attempt = 0
			}
			events = append(events, ev)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
