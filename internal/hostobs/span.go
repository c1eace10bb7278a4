package hostobs

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// Span is one completed wall-clock interval on a node (a dispatch, a
// shard execution attempt, a retry backoff, a failover re-dispatch, a
// journal fsync). Shard is -1 when the span has no shard.
type Span struct {
	Name       string `json:"name"`
	Trace      string `json:"trace,omitempty"`
	Job        string `json:"job,omitempty"`
	Shard      int    `json:"shard"`
	Attempt    int    `json:"attempt,omitempty"`
	Backend    string `json:"backend,omitempty"`
	Err        string `json:"err,omitempty"`
	Detail     string `json:"detail,omitempty"`
	StartNanos int64  `json:"start_nanos"`
	DurNanos   int64  `json:"dur_nanos"`
}

// Span records a completed span that started at startNanos (in the
// injected clock's domain) and ends now. The ring overwrites oldest.
func (h *Host) Span(name string, startNanos int64, f Fields) {
	if h == nil {
		return
	}
	sp := Span{
		Name:       name,
		Trace:      f.Trace,
		Job:        f.Job,
		Shard:      -1,
		Attempt:    f.Attempt,
		Backend:    f.Backend,
		Err:        f.Err,
		Detail:     f.Detail,
		StartNanos: startNanos,
	}
	if f.HasShard {
		sp.Shard = f.Shard
	}
	if d := h.NowNanos() - startNanos; d > 0 {
		sp.DurNanos = d
	}
	h.mu.Lock()
	if h.spLen == len(h.spans) {
		h.spans[h.spHead] = sp
		h.spHead = (h.spHead + 1) % len(h.spans)
		h.spDropped++
	} else {
		h.spans[(h.spHead+h.spLen)%len(h.spans)] = sp
		h.spLen++
	}
	h.mu.Unlock()
}

// Spans copies, in arrival order, every recorded span whose trace ID
// matches trace or whose job ID matches job (empty selectors match
// nothing, so Spans("", "") is always empty).
func (h *Host) Spans(trace, job string) []Span {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Span
	for i := 0; i < h.spLen; i++ {
		sp := h.spans[(h.spHead+i)%len(h.spans)]
		if (trace != "" && sp.Trace == trace) || (job != "" && sp.Job == job) {
			out = append(out, sp)
		}
	}
	return out
}

// NodeSpans groups one node's spans inside a cross-node trace document.
type NodeSpans struct {
	Node  string `json:"node"`
	Spans []Span `json:"spans"`
}

// WriteChrome renders a fleet's spans as one Chrome trace_event JSON
// document through internal/obs's TraceWriter, so host traces and sim
// traces open identically in Perfetto / chrome://tracing: one "process"
// per node, one "thread" per span name (in first-emission order),
// timestamps in microseconds normalized so the earliest span starts at
// ts 0.
func WriteChrome(w io.Writer, trace string, nodes []NodeSpans) error {
	var t0 int64
	first := true
	total := 0
	for _, n := range nodes {
		for _, sp := range n.Spans {
			if first || sp.StartNanos < t0 {
				t0 = sp.StartNanos
				first = false
			}
			total++
		}
	}
	tw := obs.NewTraceWriter(w)
	for i, n := range nodes {
		spans := make([]obs.Span, len(n.Spans))
		for k, sp := range n.Spans {
			args := make(map[string]string, 6)
			if sp.Job != "" {
				args["job"] = sp.Job
			}
			if sp.Shard >= 0 {
				args["shard"] = strconv.Itoa(sp.Shard)
			}
			if sp.Attempt > 0 {
				args["attempt"] = strconv.Itoa(sp.Attempt)
			}
			if sp.Backend != "" {
				args["backend"] = sp.Backend
			}
			if sp.Err != "" {
				args["err"] = sp.Err
			}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			spans[k] = obs.Span{
				Name: sp.Name,
				Ts:   uint64(sp.StartNanos-t0) / 1000,
				Dur:  uint64(sp.DurNanos) / 1000,
				Args: args,
			}
		}
		if err := tw.Spans(i+1, n.Node, spans); err != nil {
			return err
		}
	}
	return tw.CloseWith("wall-us",
		obs.Field{Key: "nodes", Value: strconv.Itoa(len(nodes))},
		obs.Field{Key: "spans", Value: strconv.Itoa(total)},
		obs.Field{Key: "trace", Value: trace})
}
