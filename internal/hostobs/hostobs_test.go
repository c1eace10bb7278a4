package hostobs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeClock returns a deterministic strictly-increasing nanosecond clock.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

// TestDisabledHostZeroAllocs pins the acceptance criterion: a nil *Host
// — the disabled configuration every sim-facing code path runs with —
// costs zero heap allocations per call.
func TestDisabledHostZeroAllocs(t *testing.T) {
	var h *Host
	f := Fields{Job: "job-0001", Shard: 3, HasShard: true, Attempt: 2, Backend: "b", Trace: "t", Err: "e"}
	allocs := testing.AllocsPerRun(1000, func() {
		start := h.NowNanos()
		h.Info("msg", f)
		h.Warn("msg", f)
		h.Error("msg", f)
		h.Span("execute", start, f)
		_ = h.Allocs()
		_ = h.NodeName()
	})
	if allocs != 0 {
		t.Fatalf("disabled hostobs path allocates: %v allocs/op, want 0", allocs)
	}
}

func TestEventRingOverwritesOldest(t *testing.T) {
	h := New(Options{Node: "n", NowNanos: fakeClock(), EventRing: 4})
	for i := 0; i < 6; i++ {
		h.Info("e", Fields{Attempt: i + 1})
	}
	events, dropped := h.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if events[0].Seq != 3 || events[3].Seq != 6 {
		t.Fatalf("ring order wrong: first seq %d last seq %d, want 3 and 6", events[0].Seq, events[3].Seq)
	}
	if events[0].Shard != -1 {
		t.Fatalf("shardless event Shard = %d, want -1 sentinel", events[0].Shard)
	}
}

func TestSpanRingAndFiltering(t *testing.T) {
	h := New(Options{Node: "n", NowNanos: fakeClock(), SpanRing: 8})
	start := h.NowNanos()
	h.Span("execute", start, Fields{Trace: "t-1", Job: "job-0001", Shard: 0, HasShard: true})
	h.Span("dispatch", start, Fields{Trace: "t-2", Job: "job-0002"})
	h.Span("journal-fsync", start, Fields{Job: "job-0001"})

	byTrace := h.Spans("t-1", "")
	if len(byTrace) != 1 || byTrace[0].Name != "execute" {
		t.Fatalf("trace filter returned %+v, want the one execute span", byTrace)
	}
	byJob := h.Spans("", "job-0001")
	if len(byJob) != 2 {
		t.Fatalf("job filter returned %d spans, want 2", len(byJob))
	}
	if got := h.Spans("", ""); got != nil {
		t.Fatalf("empty selectors matched %d spans, want none", len(got))
	}
	if byTrace[0].DurNanos <= 0 {
		t.Fatalf("span duration %d, want > 0 with a live clock", byTrace[0].DurNanos)
	}
}

func TestSlogTeeCarriesCanonicalFields(t *testing.T) {
	var buf bytes.Buffer
	h := New(Options{Node: "node-a", NowNanos: fakeClock(), LogWriter: &buf})
	h.Warn("shard retry", Fields{Job: "job-0001", Shard: 2, HasShard: true, Attempt: 3, Backend: "http://b", Trace: "t-job-0001", Err: "boom"})
	line := buf.String()
	for _, want := range []string{"level=WARN", `msg="shard retry"`, "node=node-a", "job=job-0001", "shard=2", "attempt=3", "backend=http://b", "trace=t-job-0001", "err=boom"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line missing %q:\n%s", want, line)
		}
	}
}

func TestWriteFlightRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := New(Options{Node: "n", NowNanos: fakeClock(), FlightDir: dir})
	h.Error("faultpoint crash", Fields{Detail: "journal.ack"})
	path, err := h.WriteFlight()
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-"); !strings.HasPrefix(path, want) {
		t.Fatalf("dump path %q, want prefix %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc FlightDump
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Node != "n" || doc.PID != os.Getpid() || len(doc.Events) != 1 {
		t.Fatalf("dump = %+v, want node n, this pid, 1 event", doc)
	}
	if doc.Events[0].Msg != "faultpoint crash" || doc.Events[0].Detail != "journal.ack" {
		t.Fatalf("dumped event = %+v", doc.Events[0])
	}
}

func TestWriteFlightDisabled(t *testing.T) {
	var nilHost *Host
	if path, err := nilHost.WriteFlight(); err != nil || path != "" {
		t.Fatalf("nil host WriteFlight = (%q, %v), want no-op", path, err)
	}
	h := New(Options{Node: "n"})
	if path, err := h.WriteFlight(); err != nil || path != "" {
		t.Fatalf("no FlightDir WriteFlight = (%q, %v), want no-op", path, err)
	}
}

func TestDebugMuxSurfaces(t *testing.T) {
	h := New(Options{Node: "n", NowNanos: fakeClock()})
	h.Info("hello", Fields{Job: "job-0001"})
	mux := DebugMux(h)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	var doc FlightDump
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("flightrecorder: %v", err)
	}
	if len(doc.Events) != 1 || doc.Events[0].Msg != "hello" {
		t.Fatalf("flightrecorder doc = %+v", doc)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/runtime", nil))
	var samples []struct {
		Name  string          `json:"name"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &samples); err != nil {
		t.Fatalf("runtime: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "/gc/heap/allocs:objects" {
			found = true
		}
	}
	if !found {
		t.Fatal("runtime snapshot missing /gc/heap/allocs:objects")
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rr.Code != 200 {
		t.Fatalf("pprof cmdline status %d", rr.Code)
	}

	// The whole debug surface must also work fully disabled.
	rr = httptest.NewRecorder()
	DebugMux(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if rr.Code != 200 {
		t.Fatalf("nil-host flightrecorder status %d", rr.Code)
	}
}

func TestAllocsProbe(t *testing.T) {
	h := New(Options{Node: "n"})
	a0 := h.Allocs()
	sink := make([]*int, 0, 1024)
	for i := 0; i < 1024; i++ {
		v := i
		sink = append(sink, &v)
	}
	_ = sink
	if h.Allocs() <= a0 {
		t.Fatal("alloc counter did not advance across 1024 heap allocations")
	}
}

func TestWriteChromeShape(t *testing.T) {
	nodes := []NodeSpans{
		{Node: "coordinator", Spans: []Span{
			{Name: "dispatch", Trace: "t-1", Job: "job-0001", Shard: -1, Backend: "http://a", StartNanos: 5000, DurNanos: 2000},
			{Name: "failover", Trace: "t-1", Job: "job-0001", Shard: -1, Err: "EOF", StartNanos: 9000, DurNanos: 1000},
		}},
		{Node: "backend-a", Spans: []Span{
			{Name: "execute", Trace: "t-1", Job: "job-0002", Shard: 0, Attempt: 1, StartNanos: 7000, DurNanos: 3000},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, "t-1", nodes); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "hosttrace.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("fleet trace drifted from testdata/hosttrace.golden.json:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), golden)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   uint64            `json:"ts"`
			Dur  uint64            `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not a JSON trace doc: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["clock"] != "wall-us" || doc.OtherData["nodes"] != "2" || doc.OtherData["trace"] != "t-1" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	pids := map[int]bool{}
	procNames := map[string]bool{}
	var execTs uint64
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Name == "process_name" && e.Ph == "M" {
			procNames[e.Args["name"]] = true
		}
		if e.Name == "execute" && e.Ph == "X" {
			execTs = e.Ts
			if e.Args["shard"] != "0" || e.Args["attempt"] != "1" {
				t.Fatalf("execute args = %v", e.Args)
			}
		}
	}
	if len(pids) != 2 || !procNames["coordinator"] || !procNames["backend-a"] {
		t.Fatalf("pids %v procs %v, want 2 pids named coordinator and backend-a", pids, procNames)
	}
	// Earliest span (dispatch @5000ns) normalizes to ts 0, so the
	// execute span at 7000ns lands at 2us.
	if execTs != 2 {
		t.Fatalf("execute ts = %d us, want 2 (normalized against earliest span)", execTs)
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.Revision == "" {
		t.Fatal("Build().Revision empty, want at least \"unknown\"")
	}
	if s := b.String(); s == "" {
		t.Fatal("Build().String() empty")
	}
	long := BuildInfo{Revision: "0123456789abcdef", Dirty: true, GoVersion: "go1.24"}
	if got := long.String(); got != "0123456789ab+dirty (go1.24)" {
		t.Fatalf("String() = %q", got)
	}
}
