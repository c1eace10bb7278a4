package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/soc"
	"repro/internal/sweep"
)

// A run repeats its set-up in setupBatches batches of setupReps, spread
// evenly over the untraced pass, and setup_s is the median of them all.
// One burst at start-up would time the host as it was for a tenth of a
// second; spread batches see it as the throughput does, across the run.
const (
	setupBatches = 6
	setupReps    = 84
)

// untracedShare is the share of a traced run's budget spent on an
// untraced pass, the reference for the tracing overhead.
const untracedShare = 0.3

// externalBackgrounds are the memories-offchip backgrounds whose per-point
// cost is reported separately: IC reads, IC read-modify-writes, CC only.
var externalBackgrounds = []string{"secure-stream", "secure-scrub", "cipher-mix"}

// runGrid runs comms-bram or memories-offchip: the call mpsocsim -attack
// makes (spec -> campaign.Grid -> campaign.WriteJSONL), repeated for the
// budget.
func runGrid(e env, doc []byte) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
	var grid []campaign.Config
	var setups []float64
	setupBatch := func() error {
		for range setupReps {
			t0 := time.Now()
			g, _, err := parseSpec(doc)
			setups = append(setups, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("spec: %w", err)
			}
			grid = g
		}
		return nil
	}
	if err := setupBatch(); err != nil {
		return nil, err
	}

	budget := e.budget
	if e.traced {
		budget = time.Duration(float64(budget) * untracedShare)
	}
	u, err := untracedPasses(e, grid, budget, o, setupBatch)
	if err != nil {
		return nil, err
	}
	if u.ref == nil {
		return o, nil
	}
	if err := pinDigest(e.dir, e.digestKey(), u.ref.digest); err != nil {
		o.fail(len(grid), "%v", err)
	}
	o.detail["grid"] = len(grid)
	o.detail["output_sha256"] = fmt.Sprintf("%x", u.ref.digest)
	o.detail["passes"] = summarize(u.walls)
	o.detail["pass_ms"] = u.walls
	o.detail["first_record_ms"] = summarize(u.firsts)
	o.detail["setup_ms"] = summarize(setups)
	// Throughput is the grid over the median pass: the median discards
	// passes that a busy host slowed, which a total over all passes keeps.
	passS := median(u.walls) / 1000
	untracedPPS := ratio(float64(len(grid)), passS)

	if !e.traced {
		o.set("points_per_s", "1/s", untracedPPS)
		o.set("core_cycles_per_s", "1/s", ratio(float64(u.ref.stats.cycles), passS))
		o.set("alloc_bytes_per_point", "B", ratio(float64(u.heap.bytes), float64(u.points)))
		o.set("allocs_per_point", "count", ratio(float64(u.heap.objects), float64(u.points)))
		o.set("setup_s", "s", median(setups)/1000)
		return o, nil
	}

	tr := newTracer()
	t := tracedPasses(e, grid, e.budget-budget, tr, u.ref, o)
	o.spans = tr.finish()
	var passWall, passSelf float64
	for _, s := range o.spans {
		if s.Name == "sweep.pass" {
			passWall += float64(s.End - s.Start)
			passSelf += float64(s.Self)
		}
	}
	tracedPPS := ratio(float64(len(grid)), median(t.walls)/1000)
	o.detail["traced_passes"] = summarize(t.walls)
	o.detail["run_one_ms"] = summarize(t.runOne)
	o.detail["new_pair_ms"] = summarize(t.newPair)

	o.set("spec.grid_ms", "ms", median(setups))
	o.set("job_ms_p50", "ms", median(u.walls))
	o.set("first_record_ms_p50", "ms", median(u.firsts))
	o.set("soc.new_pair_ms_p50", "ms", median(t.newPair))
	o.set("soc.new_pair_share", "ratio", ratio(sum(t.newPair), sum(t.runOne)))
	o.set("soc.new_pair_alloc_bytes", "B", newPairAllocBytes(grid))
	o.set("campaign.run_one_ms_p50", "ms", median(t.runOne))
	p90, _ := tail(t.runOne, 90)
	o.set("campaign.run_one_ms_p90", "ms", p90)
	o.set("campaign.simulate_ms_p50", "ms", median(t.simulate))
	for _, bg := range externalBackgrounds {
		o.set("campaign.run_one_ms_p50."+bg, "ms", median(t.runOneBy[bg]))
	}
	marshal, err := marshalUS([][]byte{doc}, []*expect{u.ref})
	if err != nil {
		return nil, err
	}
	o.set("sweep.marshal_us_per_record", "us", marshal)
	o.set("sweep.worker_idle_share", "ratio", 1-ratio(sum(t.busy), sum(t.walls)*float64(e.workers)))
	o.set("sweep.pipeline_self_share", "ratio", ratio(passSelf, passWall))
	o.set("trace.untraced_points_per_s", "1/s", untracedPPS)
	o.set("trace.traced_points_per_s", "1/s", tracedPPS)
	o.set("trace.overhead_share", "ratio", 1-ratio(tracedPPS, untracedPPS))
	recordMetrics(o, &u.ref.stats)
	return o, nil
}

// passes is what the untraced loop measured.
type passes struct {
	walls  []float64 // ms per pass (one pass = one job)
	firsts []float64 // ms from the pass start to its first record line
	points int
	heap   heap
	ref    *expect
}

// untracedPasses runs whole passes until the budget is spent (at least
// one). The first pass is verified on its own and becomes the reference
// every later pass must reproduce byte for byte. Between passes it runs
// the remaining setupBatches-1 set-up batches, one each time another
// share of the budget has passed.
func untracedPasses(e env, grid []campaign.Config, budget time.Duration, o *outcome, setupBatch func() error) (passes, error) {
	var p passes
	var buf bytes.Buffer
	start := time.Now()
	batches := 1
	for len(p.walls) == 0 || time.Since(start) < budget {
		for batches < setupBatches && time.Since(start) >= budget*time.Duration(batches)/setupBatches {
			if err := setupBatch(); err != nil {
				return p, err
			}
			batches++
		}
		buf.Reset()
		sink := &firstWriter{w: &buf}
		h0 := readHeap()
		sink.t0 = time.Now()
		err := campaign.WriteJSONL(sink, grid, sweep.Shard{}, e.workers)
		wall := time.Since(sink.t0)
		p.heap = p.heap.plus(readHeap().since(h0))
		o.attempted += len(grid)
		p.points += len(grid)
		p.walls = append(p.walls, ms(wall))
		p.firsts = append(p.firsts, ms(sink.first))
		if err != nil {
			o.fail(len(grid), "pass %d: %v", len(p.walls), err)
			continue
		}
		if p.ref == nil {
			ref, failed := newExpect(bytes.Clone(buf.Bytes()), len(grid))
			if failed > 0 {
				o.fail(failed, "reference pass: %d of %d records missing or in error", failed, len(grid))
			}
			p.ref = ref
		} else if n := p.ref.failures(buf.Bytes()); n > 0 {
			o.fail(n, "pass %d: %d records differ from the first pass", len(p.walls), n)
		}
	}
	for ; batches < setupBatches; batches++ {
		if err := setupBatch(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// firstWriter notes when the first record line is complete: the first
// newline written since t0.
type firstWriter struct {
	w     io.Writer
	t0    time.Time
	first time.Duration
	seen  bool
}

func (f *firstWriter) Write(b []byte) (int, error) {
	if !f.seen && bytes.IndexByte(b, '\n') >= 0 {
		f.first, f.seen = time.Since(f.t0), true
	}
	return f.w.Write(b)
}

// layerSamples is what the traced passes measured, in milliseconds.
type layerSamples struct {
	walls    []float64
	newPair  []float64
	runOne   []float64
	runOneBy map[string][]float64
	simulate []float64
	busy     []float64
}

// tracedPoint is one grid point of a traced pass with its span stamps:
// soc.NewPair ran over [t0,t1] and campaign.RunOne over [t1,t2].
type tracedPoint struct {
	rec        campaign.Record
	t0, t1, t2 int64
	err        error
}

// tracedPasses runs the grid through the same pipeline campaign.Each
// uses (sweep.StreamContext with campaign.Weights), timing each call into
// a layer: soc.NewPair on the point's own platform configuration, then
// campaign.RunOne. The records are written out as campaign.WriteJSONL
// writes them and must match the untraced reference byte for byte.
func tracedPasses(e env, grid []campaign.Config, budget time.Duration, tr *tracer, ref *expect, o *outcome) layerSamples {
	s := layerSamples{runOneBy: map[string][]float64{}}
	var buf bytes.Buffer
	write := sweep.EmitJSONL[campaign.Record](&buf)
	start := time.Now()
	for pass := 1; pass == 1 || time.Since(start) < budget; pass++ {
		buf.Reset()
		passID := tr.open("sweep.pass", fmt.Sprintf("pass-%d", pass), 0)
		t0 := time.Now()
		err := sweep.StreamContext(context.Background(), len(grid), sweep.Shard{}, campaign.Weights(grid), e.workers,
			func(i int) tracedPoint {
				var p tracedPoint
				p.t0 = tr.now()
				_, p.err = soc.NewPair(pairConfig(grid[i]))
				p.t1 = tr.now()
				p.rec = campaign.RunOne(grid[i])
				p.rec.Index = i
				p.t2 = tr.now()
				return p
			},
			func(p tracedPoint) error {
				if p.err != nil {
					return fmt.Errorf("soc.NewPair %s: %w", p.rec.Name, p.err)
				}
				id := tr.add("sweep.point", p.rec.Name, passID, p.t0, p.t2)
				tr.add("soc.NewPair", p.rec.Name, id, p.t0, p.t1)
				tr.add("campaign.RunOne", p.rec.Name, id, p.t1, p.t2)
				np, ro := nsToMS(p.t1-p.t0), nsToMS(p.t2-p.t1)
				s.newPair = append(s.newPair, np)
				s.runOne = append(s.runOne, ro)
				s.runOneBy[p.rec.Background] = append(s.runOneBy[p.rec.Background], ro)
				s.simulate = append(s.simulate, ro-np)
				s.busy = append(s.busy, nsToMS(p.t2-p.t0))
				return write(p.rec)
			})
		s.walls = append(s.walls, ms(time.Since(t0)))
		tr.close(passID)
		o.attempted += len(grid)
		if err != nil {
			o.fail(len(grid), "traced pass %d: %v", pass, err)
		} else if n := ref.failures(buf.Bytes()); n > 0 {
			o.fail(n, "traced pass %d: %d records differ from the untraced pass", pass, n)
		}
	}
	return s
}

// pairConfig is the platform configuration campaign.RunOne builds for a
// grid point.
func pairConfig(c campaign.Config) soc.Config {
	sc := soc.Config{Protection: c.Protection, NumCores: c.NumCores}
	if c.Recovery.Enabled() {
		sc.QuarantineThreshold = c.Recovery.QuarantineThreshold
		sc.QuarantineWindow = c.Recovery.QuarantineWindow
	}
	return sc
}

// newPairAllocBytes is the mean heap bytes one soc.NewPair allocates,
// measured serially over the grid's configurations while nothing else
// runs.
func newPairAllocBytes(grid []campaign.Config) float64 {
	h0 := readHeap()
	for _, c := range grid {
		if _, err := soc.NewPair(pairConfig(c)); err != nil {
			return 0
		}
	}
	return ratio(float64(readHeap().since(h0).bytes), float64(len(grid)))
}

// recordMetrics sets the per-layer figures read from verified records:
// deterministic counts that a simulator-only change must not move.
func recordMetrics(o *outcome, st *recordStats) {
	n := float64(st.points)
	o.set("cpu.stall_share", "ratio", ratio(float64(st.stalls), float64(st.cycles)))
	o.set("cpu.ipc", "ratio", ratio(float64(st.instructions), float64(st.cycles)))
	o.set("core.fw_checks_per_point", "count", ratio(float64(st.fwChecked), n))
	o.set("core.fw_blocked_per_point", "count", ratio(float64(st.fwBlocked), n))
	o.set("core.alerts_per_point", "count", ratio(float64(st.alerts), n))
	for _, bg := range externalBackgrounds {
		o.set("core.lcf_crypto_cycles_per_point."+bg, "cycles", ratio(float64(st.crypto[bg]), float64(st.byBackground[bg])))
	}
	o.set("recovery.windows_per_point", "count", ratio(float64(st.windows), n))
	o.set("recovery.quarantines_per_point", "count", ratio(float64(st.quarantines), n))
	o.set("sweep.record_bytes", "B", ratio(float64(st.bytes), n))
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
