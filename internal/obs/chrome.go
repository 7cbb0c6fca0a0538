package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Recorder is a Tracer that keeps the most recent events in a bounded
// ring buffer and exports them as Chrome trace_event JSON — one lane
// (tid) per virtual CPU, using the emitting clock's cycle counts as
// microsecond timestamps. Load the output in Perfetto or
// chrome://tracing.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// DefaultRecorderCap bounds memory when no capacity is given:
// ~128k events × ~100 B ≈ 13 MB worst case.
const DefaultRecorderCap = 1 << 17

// NewRecorder returns a ring recorder holding up to capacity events
// (DefaultRecorderCap if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Trace implements Tracer.
func (r *Recorder) Trace(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
		r.full = true
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, cap(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped reports how many events were evicted from the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// traceEvent is one Chrome trace_event record; field order here fixes
// the JSON key order, which keeps golden files stable.
type traceEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	Ts   uint64     `json:"ts"`
	Dur  uint64     `json:"dur,omitempty"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	S    string     `json:"s,omitempty"` // instant scope
	Args *traceArgs `json:"args,omitempty"`
}

type traceArgs struct {
	Tx       uint64 `json:"tx,omitempty"`
	OtherTx  uint64 `json:"other_tx,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Reads    int    `json:"reads,omitempty"`
	Writes   int    `json:"writes,omitempty"`
	Handlers int    `json:"handlers,omitempty"`
	Snapshot bool   `json:"snapshot,omitempty"`
	Where    string `json:"where,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Name     string `json:"name,omitempty"` // metadata payload
}

type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace exports the ring as a Chrome trace_event JSON document.
//
// Transaction ids are renumbered densely in order of first appearance
// so the output is stable even though the process-global id counter
// is shared across runs (golden-file tests rely on this). Events are
// sorted by (ts, tid, name) before writing.
func (r *Recorder) WriteTrace(w io.Writer) error {
	events := r.Events()

	renum := make(map[uint64]uint64, 64)
	dense := func(id uint64) uint64 {
		if id == 0 {
			return 0
		}
		if d, ok := renum[id]; ok {
			return d
		}
		d := uint64(len(renum) + 1)
		renum[id] = d
		return d
	}

	lanes := map[int]bool{}
	out := make([]traceEvent, 0, len(events)+8)
	for _, e := range events {
		lanes[e.CPU] = true
		tx := dense(e.TxID)
		other := uint64(0)
		if e.OtherTx != 0 {
			// Only map conflicting ids already seen; an id outside the
			// ring window has no dense name.
			if d, ok := renum[e.OtherTx]; ok {
				other = d
			}
		}
		te := traceEvent{
			Name: e.Kind.String(),
			Pid:  1,
			Tid:  e.CPU,
			Ts:   e.Time,
			Args: &traceArgs{Tx: tx, OtherTx: other, Attempt: e.Attempt},
		}
		span := func(dur uint64) {
			te.Ph = "X"
			if dur == 0 {
				dur = 1
			}
			if dur > te.Ts {
				dur = te.Ts // clamp: spans cannot start before t=0
			}
			te.Ts -= dur
			te.Dur = dur
		}
		switch e.Kind {
		case KindTxBegin:
			// Implicit in the commit/abort spans; an instant per begin
			// would only clutter the lanes.
			continue
		case KindTxCommit:
			te.Cat = "tx"
			span(e.Dur)
			te.Args.Reads, te.Args.Writes, te.Args.Handlers = e.Reads, e.Writes, e.Handlers
			te.Args.Snapshot = e.Snapshot
		case KindTxAbort, KindTxViolated, KindTxUserAbort:
			te.Cat = "conflict"
			span(e.Dur)
			te.Args.Where, te.Args.Reason = e.Where, e.Reason
		case KindBackoff:
			te.Cat = "backoff"
			span(e.Dur)
		case KindNestedRetry:
			te.Ph = "i"
			te.Cat = "conflict"
			te.S = "t"
			te.Args.Where, te.Args.Reason = e.Where, e.Reason
		case KindOpenCommit:
			te.Ph = "i"
			te.Cat = "tx"
			te.S = "t"
		case KindGuardWait:
			te.Ph = "i"
			te.Cat = "guard"
			te.S = "t"
			te.Args.Where = e.Where
		default:
			te.Ph = "i"
			te.S = "t"
		}
		out = append(out, te)
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Name < out[j].Name
	})

	laneIDs := make([]int, 0, len(lanes))
	for id := range lanes {
		laneIDs = append(laneIDs, id)
	}
	sort.Ints(laneIDs)
	meta := make([]traceEvent, 0, len(laneIDs)+1)
	meta = append(meta, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: &traceArgs{Name: "tcc-stm"},
	})
	for _, id := range laneIDs {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: &traceArgs{Name: laneName(id)},
		})
	}

	doc := chromeTrace{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func laneName(id int) string {
	return "vCPU " + strconv.Itoa(id)
}
