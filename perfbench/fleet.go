package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/hostobs"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/sweep"
)

const (
	// clients is the closed loop's client count: each submits its next job
	// only after the previous job's stream has ended. Every node fsyncs each
	// record under its journal lock, so with few jobs in flight the loop's
	// throughput follows the host disk's fsync latency, which drifts by 3x
	// from run to run on a shared VM. Eight jobs in flight keep the two
	// simulation workers busier while streams wait on fsync, though the
	// loop still slows when the disk does (see README.md).
	clients = 8
	// fleetBackends backends of one worker each serve the coordinator.
	fleetBackends = 2
	// fleetSetups is how many fresh fleets each of a run's setupBatches
	// set-up batches brings up; the first batch's last fleet takes the load.
	fleetSetups = 7
	// fleetJobCap keeps the jobs per fleet under server.Config.MaxJobs
	// (1024): retained jobs are never evicted, so a fleet past the cap
	// answers 429.
	fleetJobCap = 1000
)

// The workload's specs, by index: job latencies are reported per spec,
// because the two specs' job times form two separate modes and a median
// across both would fall in the gap between them.
const (
	campaignSpec = 0
	sweepSpec    = 1
)

// wallNanos is the host clock the daemon wires into its journal and
// hostobs layers.
func wallNanos() int64 { return time.Now().UnixNano() }

// runFleet runs fleet-journal: closed-loop clients submit jobs over
// loopback HTTP to a coordinator fronting two single-worker backends, all
// in this process, every node journaling to its own fresh directory. Jobs
// alternate between the workload's two specs, and each merged stream must
// match the in-process stream of the same spec byte for byte.
func runFleet(e env, docs [][]byte) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
	refs := make([]*expect, len(docs))
	var digests []byte
	for i, doc := range docs {
		var buf bytes.Buffer
		n, err := inProcess(doc, e.workers, &buf)
		if err != nil {
			return nil, err
		}
		ref, failed := newExpect(buf.Bytes(), n)
		if failed > 0 {
			o.fail(failed, "in-process reference of spec %d: %d of %d records missing or in error", i, failed, n)
		}
		refs[i] = ref
		digests = append(digests, ref.digest[:]...)
	}
	if err := pinDigest(e.dir, e.digestKey(), sha256.Sum256(digests)); err != nil {
		o.fail(refs[0].grid+refs[1].grid, "%v", err)
	}
	o.detail["grid"] = []int{refs[0].grid, refs[1].grid}
	o.detail["output_sha256"] = []string{fmt.Sprintf("%x", refs[0].digest), fmt.Sprintf("%x", refs[1].digest)}

	// Set-up: the specs parsed, validated and gridded, the journals open,
	// three servers listening and every health probe green.
	var setups, grids []float64
	setupBatch := func(keep bool) (*fleet, error) {
		var f *fleet
		for range fleetSetups {
			if f != nil {
				if err := f.close(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			for _, doc := range docs {
				if _, _, err := parseSpec(doc); err != nil {
					return nil, fmt.Errorf("spec: %w", err)
				}
			}
			grids = append(grids, ms(time.Since(t0)))
			var err error
			if f, err = startFleet(filepath.Join(e.dir, "tmp"), false); err != nil {
				return nil, err
			}
			if err := f.ready(); err != nil {
				f.close()
				return nil, err
			}
			setups = append(setups, ms(time.Since(t0)))
		}
		if keep {
			return f, nil
		}
		return nil, f.close()
	}
	f, err := setupBatch(true)
	if err != nil {
		return nil, err
	}

	budget := e.budget
	if e.traced {
		budget = time.Duration(float64(budget) * untracedShare)
	}
	// An untraced run splits its loop into setupBatches segments, with a
	// batch of fresh fleets brought up and closed between two segments
	// while the loaded fleet is idle. A traced run takes its batches first
	// and runs one loop, as its traced pass does, so the two compare.
	segments := setupBatches
	if e.traced {
		segments = 1
	}
	for b := segments; b < setupBatches; b++ {
		if _, err := setupBatch(false); err != nil {
			f.close()
			return nil, err
		}
	}
	var u loopResult
	var allocs heap
	for seg := range segments {
		if seg > 0 {
			if _, err := setupBatch(false); err != nil {
				f.close()
				return nil, err
			}
		}
		h0 := readHeap()
		u.add(f.closedLoop(docs, refs, budget/time.Duration(segments), nil, nil))
		allocs = allocs.plus(readHeap().since(h0))
	}
	o.detail["setup_ms"] = summarize(setups)
	if mets, err := f.metrics(); err == nil {
		o.detail["fsync_us_mean"] = fsyncUS(mets)
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	u.account(o, "untraced")
	jobs, firsts := u.times(campaignSpec)
	o.detail["job_ms"] = summarize(jobs)
	o.detail["first_record_ms"] = summarize(firsts)
	sweepJobs, _ := u.times(sweepSpec)
	o.detail["sweep_job_ms"] = summarize(sweepJobs)
	untracedPPS := ratio(float64(u.points), u.wall.Seconds())

	if !e.traced {
		o.set("points_per_s", "1/s", untracedPPS)
		o.set("core_cycles_per_s", "1/s", ratio(float64(u.cycles), u.wall.Seconds()))
		o.set("alloc_bytes_per_point", "B", ratio(float64(allocs.bytes), float64(u.points)))
		o.set("allocs_per_point", "count", ratio(float64(allocs.objects), float64(u.points)))
		o.set("setup_s", "s", median(setups)/1000)
		return o, nil
	}

	// Traced pass: the same fleet with host observability on every node,
	// plus the in-process time of each spec for the service overhead.
	inproc := make([]float64, len(docs))
	for i, doc := range docs {
		var reps []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, err := inProcess(doc, e.workers, io.Discard); err != nil {
				return nil, err
			}
			reps = append(reps, ms(time.Since(t0)))
		}
		inproc[i] = median(reps)
	}
	tf, err := startFleet(filepath.Join(e.dir, "tmp"), true)
	if err != nil {
		return nil, err
	}
	if err := tf.ready(); err != nil {
		tf.close()
		return nil, err
	}
	tr := newTracer()
	var hmu sync.Mutex
	host := map[string]float64{}
	hostJobs := 0
	t := tf.closedLoop(docs, refs, e.budget-budget, tr, func(j *jobResult) {
		id := tr.add("server.job", j.id, 0, j.t0, j.t0+int64(j.total))
		tr.add("server.submit", j.id, id, j.t0, j.t0+int64(j.submit))
		tr.add("server.stream", j.id, id, j.t0+int64(j.streamAt), j.t0+int64(j.total))
		split, err := tf.hostSplit(j.id)
		if err != nil {
			j.problem = err.Error()
			return
		}
		hmu.Lock()
		defer hmu.Unlock()
		hostJobs++
		for k, v := range split {
			host[k] += v
		}
	})
	mets, err := tf.metrics()
	if cerr := tf.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t.account(o, "traced")
	o.spans = tr.finish()
	tjobs, tfirsts := t.times(campaignSpec)
	tsweep, _ := t.times(sweepSpec)
	o.detail["traced_job_ms"] = summarize(tjobs)
	o.detail["grid_ms"] = summarize(grids)

	var submits, overheads []float64
	for _, j := range t.jobs {
		submits = append(submits, ms(j.submit))
		overheads = append(overheads, ms(j.total)-inproc[j.spec])
	}
	var appends, fsyncNanos float64
	var retries, poisoned float64
	for _, m := range mets {
		appends += float64(m.Journal.Appends)
		fsyncNanos += float64(m.Journal.FsyncNanosTotal)
		retries += float64(m.Shards.Retries)
		poisoned += float64(m.Shards.Poisoned)
	}
	coord := mets[len(mets)-1].Coordinator
	n := float64(len(t.jobs))
	tracedPPS := ratio(float64(t.points), t.wall.Seconds())

	o.set("spec.grid_ms", "ms", median(grids))
	o.set("job_ms_p50", "ms", median(jobs))
	o.set("first_record_ms_p50", "ms", median(tfirsts))
	o.set("server.sweep_job_ms_p50", "ms", median(tsweep))
	p90, ok := tail(tjobs, 90)
	if !ok {
		o.detail["job_ms_p90"] = fmt.Sprintf("%d jobs leave fewer than %d beyond p90", len(tjobs), minBeyond)
	}
	o.set("job_ms_p90", "ms", p90)
	o.set("server.submit_ms_p50", "ms", median(submits))
	o.set("server.service_overhead_ms_p50", "ms", median(overheads))
	o.set("journal.appends_per_job", "count", ratio(appends, n))
	o.set("journal.fsync_us_mean", "us", fsyncUS(mets))
	o.set("journal.fsync_share", "ratio", ratio(fsyncNanos/1e6, sum(tjobs)+sum(tsweep)))
	o.set("server.coord_dispatches_per_job", "count", ratio(float64(coord.Dispatches), n))
	o.set("server.shard_retries", "count", retries)
	o.set("server.coord_failovers", "count", float64(coord.Failovers))
	o.set("server.shards_poisoned", "count", poisoned)
	for _, k := range hostSpans {
		o.set(k, "ms", ratio(host[k], float64(hostJobs)))
	}
	o.set("trace.untraced_points_per_s", "1/s", untracedPPS)
	o.set("trace.traced_points_per_s", "1/s", tracedPPS)
	o.set("trace.overhead_share", "ratio", 1-ratio(tracedPPS, untracedPPS))
	marshal, err := marshalUS(docs, refs)
	if err != nil {
		return nil, err
	}
	o.set("sweep.marshal_us_per_record", "us", marshal)
	st := refs[0].stats
	st.merge(&refs[1].stats)
	recordMetrics(o, &st)
	return o, nil
}

// fsyncUS is the mean fsync time per journal append over the nodes'
// metrics, in microseconds.
func fsyncUS(mets []server.Metrics) float64 {
	var appends, nanos float64
	for _, m := range mets {
		appends += float64(m.Journal.Appends)
		nanos += float64(m.Journal.FsyncNanosTotal)
	}
	return ratio(nanos/1000, appends)
}

// inProcess runs a spec the way mpsocsim does — campaign.WriteJSONL or
// sweep.WriteJSONL over the whole grid — and returns its grid size.
func inProcess(doc []byte, workers int, w io.Writer) (int, error) {
	sp, err := spec.Parse(doc)
	if err != nil {
		return 0, err
	}
	if sp.Campaign != nil {
		g, err := sp.Campaign.Grid()
		if err != nil {
			return 0, err
		}
		return len(g), campaign.WriteJSONL(w, g, sweep.Shard{}, workers)
	}
	g, err := sp.Sweep.Grid()
	if err != nil {
		return 0, err
	}
	return len(g), sweep.WriteJSONL(w, g, sweep.Shard{}, workers)
}

// marshalUS is the mean time sweep.EmitJSONL takes to marshal one record
// of the reference streams into io.Discard, in microseconds. It runs
// serially after the load, so the figure is the marshal cost itself, not
// the wait for a CPU the workers hold.
func marshalUS(docs [][]byte, refs []*expect) (float64, error) {
	var total time.Duration
	n := 0
	for i, doc := range docs {
		sp, err := spec.Parse(doc)
		if err != nil {
			return 0, err
		}
		var d time.Duration
		if sp.Campaign != nil {
			d, err = timeMarshal[campaign.Record](refs[i].lines)
		} else {
			d, err = timeMarshal[sweep.RunResult](refs[i].lines)
		}
		if err != nil {
			return 0, err
		}
		total += d
		n += len(refs[i].lines)
	}
	return ratio(float64(total)/1e3, float64(n)), nil
}

// timeMarshal decodes the lines into records, then times marshaling them
// all again.
func timeMarshal[R any](lines [][]byte) (time.Duration, error) {
	recs := make([]R, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &recs[i]); err != nil {
			return 0, err
		}
	}
	emit := sweep.EmitJSONL[R](io.Discard)
	t0 := time.Now()
	for _, r := range recs {
		if err := emit(r); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// fleet is one coordinator with single-worker backends, each node
// journaling to its own directory under dir, all serving on loopback.
type fleet struct {
	dir    string
	coord  string
	nodes  []*node // backends first, coordinator last
	client *http.Client
	fleetC *http.Client
	wg     sync.WaitGroup
	// submitted counts the jobs submitted over all of the fleet's loops.
	submitted int
}

type node struct {
	url  string
	svc  *server.Server
	http *http.Server
	jn   *journal.Journal
}

// loopback is a client for loopback traffic: no proxy, enough idle
// connections per host that the concurrent jobs never re-dial.
func loopback() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}

// startFleet brings up a fresh fleet in a new directory under base. With
// traced set every node gets a hostobs.Host (no log writer) and its
// journal reports fsync spans to it, as mpsocd wires them.
func startFleet(base string, traced bool) (*fleet, error) {
	dir, err := os.MkdirTemp(base, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: loopback(), fleetC: loopback()}
	var backends []string
	for i := 0; i < fleetBackends; i++ {
		n, err := f.start(fmt.Sprintf("backend-%d", i), server.Config{Workers: 1}, traced)
		if err != nil {
			f.close()
			return nil, err
		}
		backends = append(backends, n.url)
	}
	n, err := f.start("coordinator", server.Config{Backends: backends, FleetClient: f.fleetC}, traced)
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = n.url
	return f, nil
}

func (f *fleet) start(name string, cfg server.Config, traced bool) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opt := journal.Options{NowNanos: wallNanos}
	if traced {
		h := hostobs.New(hostobs.Options{Node: name + "@" + ln.Addr().String(), NowNanos: wallNanos})
		opt.Observe = func(op, jobID string, startNanos, _ int64) {
			h.Span("journal-fsync", startNanos, hostobs.Fields{Job: jobID, Detail: op})
		}
		cfg.Host = h
	}
	jn, err := journal.Open(filepath.Join(f.dir, name), opt)
	if err != nil {
		ln.Close()
		return nil, err
	}
	cfg.Journal = jn
	svc := server.New(cfg)
	n := &node{url: "http://" + ln.Addr().String(), svc: svc, jn: jn,
		http: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	f.nodes = append(f.nodes, n)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		n.http.Serve(ln)
	}()
	return n, nil
}

// ready probes every node's /healthz — the probe the coordinator makes
// before it dispatches — and fails unless all answer 200.
func (f *fleet) ready() error {
	for _, n := range f.nodes {
		resp, err := f.client.Get(n.url + "/healthz")
		if err != nil {
			return fmt.Errorf("health probe: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("health probe %s: %s", n.url, resp.Status)
		}
	}
	return nil
}

// close stops every node (coordinator first), waits for the serve loops
// to end, and removes the fleet's directory.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range slices.Backward(f.nodes) {
		if err := n.http.Shutdown(ctx); err != nil {
			n.http.Close()
		}
		n.svc.Close()
		n.jn.Close()
	}
	f.wg.Wait()
	f.client.CloseIdleConnections()
	f.fleetC.CloseIdleConnections()
	return os.RemoveAll(f.dir)
}

// metrics reads every node's /metrics, in node order.
func (f *fleet) metrics() ([]server.Metrics, error) {
	var out []server.Metrics
	for _, n := range f.nodes {
		var m server.Metrics
		if err := f.getJSON(n.url+"/metrics", &m); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func (f *fleet) getJSON(url string, v any) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// hostSpans are the per-job host clocks read from a job's hosttrace: the
// coordinator's dispatch and journal-fsync spans and the backends'
// execute spans (one per grid point).
var hostSpans = []string{
	"hosttrace.coordinator.dispatch_ms_per_job",
	"hosttrace.coordinator.journal_fsync_ms_per_job",
	"hosttrace.backend.execute_ms_per_job",
}

// hostSplit reads a job's cross-node hosttrace from the coordinator and
// sums span durations by node role and span name, in milliseconds.
func (f *fleet) hostSplit(id string) (map[string]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := f.getJSON(f.coord+"/api/v1/jobs/"+id+"/hosttrace", &doc); err != nil {
		return nil, err
	}
	// The coordinator is the document's first process (pid 1).
	out := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		role := "backend"
		if ev.Pid == 1 {
			role = "coordinator"
		}
		key := "hosttrace." + role + "." + strings.ReplaceAll(ev.Name, "-", "_") + "_ms_per_job"
		out[key] += ev.Dur / 1000
	}
	return out, nil
}

// jobResult is one job as a client saw it. Times are from the submit.
type jobResult struct {
	spec     int
	grid     int
	id       string
	t0       int64 // tracer clock at submit (traced pass only)
	submit   time.Duration
	streamAt time.Duration
	first    time.Duration
	total    time.Duration
	failed   int
	problem  string
}

// loopResult is one closed-loop pass.
type loopResult struct {
	jobs   []jobResult
	wall   time.Duration
	points int
	cycles uint64
}

// closedLoop runs the clients until the budget is spent or the fleet's
// job cap is reached. Client c submits spec (c+k) mod 2 as its k-th job,
// so both specs are in flight at once. In a traced pass tr stamps each
// submit and after runs on each finished job before its client moves on
// (outside the job's timing).
func (f *fleet) closedLoop(docs [][]byte, refs []*expect, budget time.Duration, tr *tracer, after func(*jobResult)) loopResult {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		res loopResult
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				mu.Lock()
				if time.Since(start) >= budget || f.submitted >= fleetJobCap {
					mu.Unlock()
					return
				}
				f.submitted++
				mu.Unlock()
				which := (c + k) % len(docs)
				var t0 int64
				if tr != nil {
					t0 = tr.now()
				}
				j := f.runJob(docs[which], refs[which])
				j.spec, j.t0 = which, t0
				if after != nil {
					after(&j)
				}
				mu.Lock()
				res.jobs = append(res.jobs, j)
				if j.failed == 0 {
					res.points += refs[which].grid
					res.cycles += refs[which].stats.cycles
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// add appends another loop's jobs, wall time and counts.
func (r *loopResult) add(o loopResult) {
	r.jobs = append(r.jobs, o.jobs...)
	r.wall += o.wall
	r.points += o.points
	r.cycles += o.cycles
}

// account adds the loop's jobs to the outcome's attempted and failed
// counts.
func (r *loopResult) account(o *outcome, pass string) {
	for _, j := range r.jobs {
		o.attempted += j.grid
		if j.failed > 0 || j.problem != "" {
			o.fail(j.failed, "%s job %s (spec %d): %s", pass, j.id, j.spec, j.problem)
		}
	}
}

// times returns the job and first-record latencies of the loop's jobs of
// one spec, in milliseconds.
func (r *loopResult) times(spec int) (jobs, firsts []float64) {
	for _, j := range r.jobs {
		if j.spec != spec {
			continue
		}
		jobs = append(jobs, ms(j.total))
		firsts = append(firsts, ms(j.first))
	}
	return jobs, firsts
}

// runJob submits one spec to the coordinator, reads the job's merged
// stream to its end, and checks it against the in-process reference.
// Every failure counts the grid points it lost: a refused submit (429
// included) or a failed stream request loses the whole grid, a truncated
// stream the records it is missing, and each record that differs from
// the reference one.
func (f *fleet) runJob(doc []byte, ref *expect) jobResult {
	j := jobResult{grid: ref.grid, failed: ref.grid}
	t0 := time.Now()
	resp, err := f.client.Post(f.coord+"/api/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		j.problem = "submit: " + err.Error()
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusCreated {
		j.problem = fmt.Sprintf("submit: %s %s", resp.Status, bytes.TrimSpace(body))
		return j
	}
	var st server.Status
	if err := json.Unmarshal(body, &st); err != nil {
		j.problem = "submit reply: " + err.Error()
		return j
	}
	j.id = st.ID
	j.streamAt = time.Since(t0)
	resp, err = f.client.Get(f.coord + st.StreamURL)
	if err != nil {
		j.problem = "stream: " + err.Error()
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.problem = "stream: " + resp.Status
		return j
	}
	var buf bytes.Buffer
	sink := &firstWriter{w: &buf, t0: t0}
	_, err = io.Copy(sink, resp.Body)
	j.total, j.first = time.Since(t0), sink.first
	if err != nil {
		j.problem = "stream truncated: " + err.Error()
	}
	if j.failed = ref.failures(buf.Bytes()); j.failed > 0 && j.problem == "" {
		j.problem = fmt.Sprintf("%d of %d records differ from the in-process stream", j.failed, ref.grid)
	}
	return j
}
