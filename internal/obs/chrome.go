package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// TraceWriter streams one Chrome trace_event JSON document (the "JSON
// object format": {"traceEvents": [...], ...}) to w. Each traced run is
// added as one process via Process — pid is the run's 1-based grid index,
// the process name its grid-point name — so a whole campaign loads into
// Perfetto as parallel process timelines with one thread (track) per
// core/firewall/lifecycle lane.
//
// Timestamps are sim cycles written into the format's microsecond field:
// viewers display "µs" but the unit is cycles (otherData.clock says so).
// Everything is rendered in deterministic order — events in emission
// order, args with sorted keys — so trace bytes are identical across
// worker counts whenever the underlying runs are.
type TraceWriter struct {
	w       io.Writer
	err     error
	wrote   bool // at least one event written (comma management)
	emitted uint64
	dropped uint64
}

// chromeEvent is one trace_event record. Field order fixes the rendered
// byte order; Args uses a map because encoding/json sorts map keys, which
// keeps arbitrary per-kind detail deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// NewTraceWriter starts the document. Call Process once per traced run,
// then Close.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: w}
	tw.writeString(`{"traceEvents":[`)
	return tw
}

func (tw *TraceWriter) writeString(s string) {
	if tw.err != nil {
		return
	}
	_, tw.err = io.WriteString(tw.w, s)
}

func (tw *TraceWriter) writeEvent(e chromeEvent) {
	if tw.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		tw.err = err
		return
	}
	if tw.wrote {
		tw.writeString(",\n")
	} else {
		tw.writeString("\n")
	}
	tw.wrote = true
	if tw.err == nil {
		_, tw.err = tw.w.Write(data)
	}
}

// Process appends one run's events as process pid. A nil tracer writes
// nothing (an untraced run occupies no pid). Tracks become threads in
// first-emission order; metadata events name the process and each thread.
func (tw *TraceWriter) Process(pid int, name string, t *Tracer) error {
	if t == nil {
		return tw.err
	}
	tw.emitted += t.Emitted()
	tw.dropped += t.Dropped()
	events := t.Events()
	tw.process(pid, name, len(events), func(i int) string { return events[i].Track }, func(i int) chromeEvent {
		e := &events[i]
		ce := chromeEvent{Name: e.Name, Ts: e.Cycle}
		switch e.Kind {
		case KindIncident:
			ce.Ph, ce.Dur = "X", e.Dur
		case KindWindow:
			ce.Ph = "C"
			ce.Args = map[string]string{"ratio_milli": fmt.Sprintf("%d", e.Value)}
		default:
			ce.Ph, ce.S = "i", "t"
		}
		if e.Arg != "" {
			if ce.Args == nil {
				ce.Args = map[string]string{"detail": e.Arg}
			} else {
				ce.Args["detail"] = e.Arg
			}
		}
		return ce
	})
	return tw.err
}

// Span is one complete ("X") event, for processes whose events come from
// somewhere other than a sim Tracer (the host layer's wall-clock spans).
// Ts and Dur are in the document's clock unit.
type Span struct {
	Name string
	Ts   uint64
	Dur  uint64
	Args map[string]string
}

// Spans appends spans as process pid, laid out exactly like Process:
// process and thread metadata first, one thread per span name in
// first-emission order, then the events in slice order.
func (tw *TraceWriter) Spans(pid int, name string, spans []Span) error {
	tw.process(pid, name, len(spans), func(i int) string { return spans[i].Name }, func(i int) chromeEvent {
		sp := &spans[i]
		return chromeEvent{Name: sp.Name, Ph: "X", Ts: sp.Ts, Dur: sp.Dur, Args: sp.Args}
	})
	return tw.err
}

// process writes one process of n events: the process_name metadata, a
// thread_name per distinct track(i) — tids assigned in first-emission
// order, which is deterministic whenever the event order is; the map is
// lookup-only — then event(i) for each event with pid and tid filled in.
func (tw *TraceWriter) process(pid int, name string, n int, track func(int) string, event func(int) chromeEvent) {
	tw.writeEvent(chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": name},
	})
	tids := make(map[string]int, 8)
	for i := 0; i < n; i++ {
		tr := track(i)
		if _, ok := tids[tr]; ok {
			continue
		}
		tid := len(tids)
		tids[tr] = tid
		tw.writeEvent(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]string{"name": tr},
		})
	}
	for i := 0; i < n; i++ {
		ce := event(i)
		ce.Pid, ce.Tid = pid, tids[track(i)]
		tw.writeEvent(ce)
	}
}

// Field is one otherData member of the closing envelope; Value is
// rendered as JSON.
type Field struct {
	Key   string
	Value any
}

// Close ends a sim-trace document, recording the clock domain and the
// emitted/dropped totals across every process.
func (tw *TraceWriter) Close() error {
	return tw.CloseWith("sim-cycles", Field{"emitted", tw.emitted}, Field{"dropped", tw.dropped})
}

// CloseWith ends the document with otherData {"clock": clock, other...},
// members in the order given.
func (tw *TraceWriter) CloseWith(clock string, other ...Field) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":%q", clock)
	for _, f := range other {
		v, err := json.Marshal(f.Value)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, ",%q:%s", f.Key, v)
	}
	b.WriteString("}}\n")
	tw.writeString(b.String())
	return tw.err
}

// WriteTrace renders this tracer alone as a single-process trace document
// — the mpsocsim single-run shape.
func (t *Tracer) WriteTrace(w io.Writer, process string) error {
	tw := NewTraceWriter(w)
	if err := tw.Process(1, process, t); err != nil {
		return err
	}
	return tw.Close()
}
