// Command perfbench is the repository benchmark: it runs the
// communication-attack campaign (comms-bram), the memory-attack campaign
// (memories-offchip) and a journaled fleet (fleet-journal) through the
// repo's public entry points, checks every output byte, and prints the
// end-to-end metrics (untraced pass) or the per-layer metrics (traced
// pass) as the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload comms-bram --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/campaign"
	"repro/internal/spec"
)

// maxWorkers bounds simulation workers: every workload generates its load
// from one process with at most this many workers (fewer on a smaller
// host).
const maxWorkers = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	workers  int
	// dir holds digests, span dumps and temporary journal directories.
	dir string
	// binKey identifies the benchmark binary, so pinned digests of another
	// build of the program are never compared.
	binKey string
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	// detail carries sample counts, tail percentiles, the seed and the
	// digests: printed on the line before the result.
	detail map[string]any
	spans  []span
}

func (o *outcome) fail(points int, format string, args ...any) {
	o.failed += points
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Uint64("seed", 1, "workload seed: permutes the spec axes and picks inject_delay")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for digests, span dumps and temporary journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds > 0 and --trace 0 or 1")
		return 2
	}
	specs, err := specsFor(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		workers:  min(maxWorkers, runtime.NumCPU()),
		dir:      *dir,
	}
	if e.binKey, err = binaryKey(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, sub := range []string{"digests", "spans", "tmp"} {
		if err := os.MkdirAll(filepath.Join(e.dir, sub), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	docs := make([][]byte, len(specs))
	for i, sp := range specs {
		if docs[i], err = sp.JSON(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	var o *outcome
	if e.workload == fleetJournal {
		o, err = runFleet(e, docs)
	} else {
		o, err = runGrid(e, docs[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := o.complete(e.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.detail["workload"] = e.workload
	o.detail["seed"] = e.seed
	o.detail["trace"] = *trace
	o.detail["workers"] = e.workers
	o.detail["problems"] = o.problems
	if e.traced {
		path := filepath.Join(e.dir, "spans", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
		if err := dump(path, o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		o.detail["spans"] = path
	}
	return report(stdout, o)
}

// report prints the detail line and the result line. A run with any
// failure is invalid: it reports no metrics and exits non-zero.
func report(w io.Writer, o *outcome) int {
	res := result{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: o.metrics}
	if !res.Correct {
		res.Metrics = map[string]metric{}
	}
	detail, _ := json.Marshal(o.detail)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n%s\n", detail, line)
	if !res.Correct {
		for _, p := range o.problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
		}
		return 1
	}
	return 0
}

// binaryKey is a short hash of the running executable.
func binaryKey() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// digestKey names a pinned output digest.
func (e env) digestKey() string {
	return filepath.Join("digests", fmt.Sprintf("%s-seed%d-%s", e.workload, e.seed, e.binKey))
}

// parseSpec is the set-up every workload times: parse and validate the
// spec document and build its grid. It returns the grid size and, for a
// campaign spec, the grid itself.
func parseSpec(doc []byte) ([]campaign.Config, int, error) {
	sp, err := spec.Parse(doc)
	if err != nil {
		return nil, 0, err
	}
	if sp.Campaign != nil {
		g, err := sp.Campaign.Grid()
		return g, len(g), err
	}
	g, err := sp.Sweep.Grid()
	return nil, len(g), err
}

// heap reads the process's cumulative heap allocation counters.
type heap struct{ bytes, objects uint64 }

func readHeap() heap {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return heap{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (h heap) since(old heap) heap { return heap{h.bytes - old.bytes, h.objects - old.objects} }

func (h heap) plus(d heap) heap { return heap{h.bytes + d.bytes, h.objects + d.objects} }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
