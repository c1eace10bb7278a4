package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false}, // 9.75 samples beyond p75
		{40, 75, true},
		{99, 75, true}, // 9.9 beyond p90
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got, ok := tail(xs, 90); !ok || got != 90 {
		t.Errorf("tail(1..100, 90) = %v, %v; want 90, true", got, ok)
	}
	if _, ok := tail(xs[:99], 90); ok {
		t.Error("tail accepted p90 with only 9.9 samples beyond it")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	d := summarize(xs)
	if d.N != 100 || d.TailP != 90 || d.Tail != 90 || d.P50 != 50.5 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Two workers: [10,40] and [30,60] overlap and cover [10,60].
		{ID: 2, Parent: 1, Name: "point", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "point", Start: 30, End: 60},
		// Nested inside the second point: covered already.
		{ID: 4, Parent: 1, Name: "point", Start: 35, End: 50},
		{ID: 5, Parent: 1, Name: "point", Start: 70, End: 80},
		// Runs past the parent's end: clipped to [90,100].
		{ID: 6, Parent: 1, Name: "point", Start: 90, End: 120},
		// A grandchild covers part of point 2, not of the pass directly.
		{ID: 7, Parent: 2, Name: "newpair", Start: 10, End: 25},
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10 + 10), 2: 30 - 15, 3: 30, 4: 15, 5: 10, 6: 30, 7: 15}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

// reference builds a four-record stream and its expectation.
func reference(t *testing.T) ([]byte, *expect) {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&buf, `{"index":%d,"background":"stream","cores":[{"cycles":%d,"instructions":5,"stall_cycles":3}]}`+"\n", i, 10+i)
	}
	ref, failed := newExpect(bytes.Clone(buf.Bytes()), 4)
	if failed != 0 {
		t.Fatalf("clean reference: %d failures", failed)
	}
	if ref.stats.cycles != 46 || ref.stats.points != 4 {
		t.Fatalf("reference stats = %+v", ref.stats)
	}
	return buf.Bytes(), ref
}

func TestDigestCatchesOneFlippedByte(t *testing.T) {
	body, ref := reference(t)
	if n := ref.failures(body); n != 0 {
		t.Fatalf("identical stream: %d failures", n)
	}
	for i, b := range body {
		if b == '\n' {
			continue
		}
		bad := bytes.Clone(body)
		bad[i] ^= 0x01
		if n := ref.failures(bad); n != 1 {
			t.Fatalf("byte %d flipped: %d failures, want 1", i, n)
		}
	}
	dir := t.TempDir()
	if err := pinDigest(dir, "k", ref.digest); err != nil {
		t.Fatal(err)
	}
	if err := pinDigest(dir, "k", ref.digest); err != nil {
		t.Fatalf("same digest twice: %v", err)
	}
	other := ref.digest
	other[0] ^= 1
	if err := pinDigest(dir, "k", other); err == nil {
		t.Fatal("pinDigest accepted a different digest for the same key")
	}
}

func TestFailuresCountEachKind(t *testing.T) {
	body, ref := reference(t)
	lines := splitLines(body)
	join := func(ls ...[]byte) []byte { return append(bytes.Join(ls, []byte("\n")), '\n') }

	errRecord := []byte(`{"index":2,"error":"campaign: background finished before injection"}`)
	if n := ref.failures(join(lines[0], lines[1], errRecord, lines[3])); n != 1 {
		t.Errorf("one error record: %d failures, want 1", n)
	}
	if _, n := newExpect(join(lines[0], lines[1], errRecord, lines[3]), 4); n != 1 {
		t.Errorf("reference with one error record: %d failures, want 1", n)
	}
	truncated := append(join(lines[0], lines[1]), lines[2][:7]...)
	if n := ref.failures(truncated); n != 2 {
		t.Errorf("stream cut inside record 2: %d failures, want 2", n)
	}
	if _, n := newExpect(truncated, 4); n != 2 {
		t.Errorf("truncated reference: %d failures, want 2", n)
	}
	if n := ref.failures(append(bytes.Clone(body), lines[0]...)); n != 4 {
		t.Errorf("trailing garbage: %d failures, want the whole grid", n)
	}

	// Through the client: a refused submit loses the whole grid, a short
	// stream the records it is missing.
	var stream []byte
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if stream == nil {
			http.Error(w, `{"error":"job table full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"job-0001","stream_url":"/api/v1/jobs/job-0001/stream"}`))
	})
	mux.HandleFunc("GET /api/v1/jobs/job-0001/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Write(stream)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	f := &fleet{coord: ts.URL, client: ts.Client()}

	refused := f.runJob([]byte("{}"), ref)
	if refused.failed != 4 || !strings.Contains(refused.problem, "429") {
		t.Errorf("429 submit: failed %d, problem %q; want 4 and a 429", refused.failed, refused.problem)
	}
	stream = join(lines[0], lines[1], lines[2])
	short := f.runJob([]byte("{}"), ref)
	if short.failed != 1 || short.id != "job-0001" {
		t.Errorf("stream missing one record: failed %d (job %q), want 1", short.failed, short.id)
	}
	stream = body
	if ok := f.runJob([]byte("{}"), ref); ok.failed != 0 || ok.problem != "" {
		t.Errorf("clean job: failed %d, problem %q", ok.failed, ok.problem)
	}

	// error_rate is failed over attempted, and a run with failures reports
	// no metrics.
	o := &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
	r := loopResult{jobs: []jobResult{refused, short}}
	r.account(o, "test")
	o.attempted += 2 // two more clean points
	if err := o.complete(true); err != nil {
		t.Fatal(err)
	}
	if got := o.metrics["error_rate"].Value; got != 0.5 {
		t.Errorf("error_rate = %v, want 5/10", got)
	}
	var out bytes.Buffer
	if code := report(&out, o); code == 0 {
		t.Error("a run with failures exited 0")
	}
	var res result
	outLines := splitLines(out.Bytes())
	if err := json.Unmarshal(outLines[len(outLines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 5 || res.Attempted != 10 || len(res.Metrics) != 0 {
		t.Errorf("invalid run reported %+v", res)
	}
}

func TestSpecsFollowTheSeed(t *testing.T) {
	want := map[string][]int{commsBRAM: {135}, memoriesOffchip: {108}, fleetJournal: {30, 24}}
	for _, w := range workloadNames {
		a, err := specsFor(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := specsFor(w, 7)
		c, _ := specsFor(w, 8)
		for i := range a {
			ja, _ := a[i].JSON()
			jb, _ := b[i].JSON()
			if !bytes.Equal(ja, jb) {
				t.Errorf("%s spec %d differs for the same seed", w, i)
			}
			if _, n, err := parseSpec(ja); err != nil || n != want[w][i] {
				t.Errorf("%s spec %d: grid %d, %v; want %d points", w, i, n, err, want[w][i])
			}
			if cs := a[i].Campaign; cs != nil {
				r := inject256
				if cs.Accesses == 64 {
					r = inject64
				}
				if cs.InjectDelay < r.lo || cs.InjectDelay > r.hi {
					t.Errorf("%s inject_delay %d outside [%d,%d]", w, cs.InjectDelay, r.lo, r.hi)
				}
			}
		}
		ja, _ := a[0].JSON()
		jc, _ := c[0].JSON()
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec", w)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
