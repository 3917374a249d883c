package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// tracer is the traced run's recorder: a metrics registry wired through
// every layer, wall-clock spans around each call the benchmark makes into
// a layer, and virtual-time spans per operation and per delivery. Spans
// stay in memory until writeChrome. A nil *tracer is the untraced mode:
// timed still measures, nothing else is recorded.
type tracer struct {
	reg   *metrics.Registry
	t0    time.Time
	spans []span
	open  []int // ids of the wall spans enclosing the current call
	next  int
	wall  map[string]time.Duration // summed wall time per call name
	alloc map[string]float64       // MB allocated per call name
}

// span is one interval: host wall-clock nanoseconds since the tracer
// started, or virtual nanoseconds when virtual is set. op is the
// operation id shared by an operation's span and its per-rank or
// per-delivery children (-1: not tied to one operation).
type span struct {
	name       string
	id, parent int
	op, tid    int
	virtual    bool
	start, end int64
}

func newTracer() *tracer {
	return &tracer{reg: metrics.New(), t0: time.Now(),
		wall: map[string]time.Duration{}, alloc: map[string]float64{}}
}

// timed runs fn, which calls into one layer, and returns its wall time.
// When tracing it also records a span (nested under the enclosing timed
// call) and the bytes fn allocated.
func (t *tracer) timed(name string, fn func()) time.Duration {
	if t == nil {
		begun := time.Now()
		fn()
		return time.Since(begun)
	}
	t.next++
	id, parent := t.next, 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t.open = append(t.open, id)
	begun := time.Now()
	fn()
	d := time.Since(begun)
	t.open = t.open[:len(t.open)-1]
	runtime.ReadMemStats(&ms)
	t.wall[name] += d
	t.alloc[name] += float64(ms.TotalAlloc-alloc0) / (1 << 20)
	start := begun.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: -1,
		start: start, end: start + d.Nanoseconds()})
	return d
}

// virtual records one simulated-time span and returns its id.
func (t *tracer) virtual(name string, parent, op, tid int, start, end sim.Time) int {
	t.next++
	t.spans = append(t.spans, span{name: name, id: t.next, parent: parent, op: op, tid: tid,
		virtual: true, start: int64(start), end: int64(end)})
	return t.next
}

// deliverySpans records each multicast (root post to last delivery) and,
// under it, each receiver's delivery.
func (t *tracer) deliverySpans(post []sim.Time, recvAt [][]sim.Time) {
	for k, at := range post {
		last := at
		for _, got := range recvAt {
			if k < len(got) && got[k] > last {
				last = got[k]
			}
		}
		op := t.virtual("mcast", 0, k, 0, at, last)
		for i, got := range recvAt {
			if k < len(got) {
				t.virtual("deliver", op, k, i, at, got[k])
			}
		}
	}
}

// callSpans records each collective call (first entry to last exit) and,
// under it, each rank's call.
func (t *tracer) callSpans(calls [][]rankCall, name func(call int) string) {
	for k, row := range calls {
		if row == nil {
			continue
		}
		first, last := sim.Time(-1), sim.Time(0)
		for _, rc := range row {
			if rc.done && (first < 0 || rc.enter < first) {
				first = rc.enter
			}
			if rc.exit > last {
				last = rc.exit
			}
		}
		if first < 0 {
			continue
		}
		op := t.virtual(name(k), 0, k, 0, first, last)
		for r, rc := range row {
			if rc.done {
				t.virtual("rank", op, k, r, rc.enter, rc.exit)
			}
		}
	}
}

// writeChrome writes the spans as Chrome trace-event JSON: process 1 is
// host wall clock, process 2 simulated time; timestamps are microseconds.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for pid, name := range []string{"host wall clock", "simulated time"} {
		if pid > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{Name: "process_name", Ph: "M", Pid: pid + 1, Args: map[string]any{"name": name}}); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	for _, s := range t.spans {
		pid := 1
		if s.virtual {
			pid = 2
		}
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.op >= 0 {
			args["op"] = s.op
		}
		fmt.Fprint(w, ",")
		ev := event{Name: s.name, Ph: "X", Pid: pid, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args}
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("span file: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
