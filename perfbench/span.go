package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, timed from the benchmark's own code.
// Times are nanoseconds since the tracer started. Parent 0 is the root;
// Key names the grid point or job the span belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Only traced passes
// use one; the untraced pass calls the layers directly.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// now is the tracer clock.
func (t *tracer) now() int64 {
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its ID for children to name.
func (t *tracer) add(name, key string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	return id
}

// open starts a span that its children can name before it ends; close
// ends it.
func (t *tracer) open(name, key string, parent int) int {
	return t.add(name, key, parent, t.now(), 0)
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// dump writes the spans as one JSON document.
func dump(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that its children cover. Children may overlap each other (two
// workers run two points at once): covered time is the length of the
// union of their intervals clipped to the parent, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		p := &spans[i]
		cs := kids[p.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].a < cs[b].a })
		var covered int64
		var cur iv
		have := false
		for _, c := range cs {
			c.a, c.b = max(c.a, p.Start), min(c.b, p.End)
			switch {
			case c.b <= c.a:
			case !have:
				cur, have = c, true
			case c.a > cur.b:
				covered += cur.b - cur.a
				cur = c
			case c.b > cur.b:
				cur.b = c.b
			}
		}
		if have {
			covered += cur.b - cur.a
		}
		p.Self = p.End - p.Start - covered
	}
}
