// Package sweep is the scenario-sweep pipeline: it runs many independent,
// deterministic soc.System instances across a worker pool and streams
// per-run statistics — aggregate, per-core and per-firewall — as they
// complete.
//
// Each simulation owns its engine and every component hanging off it, so
// runs share no mutable state and can execute on separate goroutines
// without synchronization beyond the job queue. Completed runs pass through
// an index-ordered reorder buffer before they reach the consumer, which
// makes every output stream independent of goroutine scheduling: two sweeps
// over the same grid produce byte-identical JSONL/CSV regardless of worker
// count.
//
// Grids also shard deterministically across processes: Shard{i, n} selects
// every n-th grid point starting at i, each shard's stream carries global
// grid indices, and Merge recombines shard outputs into the exact stream a
// single unsharded process would have written.
package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/workload"
)

// Default per-run parameters, applied by Normalize when a Config leaves the
// corresponding field zero.
const (
	DefaultAccesses  = 64
	DefaultCompute   = 8
	DefaultMaxCycles = 2_000_000
)

// Config is one grid point: a platform build plus the workload to run on
// it.
type Config struct {
	// Protection selects the security architecture.
	Protection soc.Protection `json:"-"`
	// NumCores is the processor count (soc default when zero).
	NumCores int `json:"num_cores"`
	// Workload is one of matmul, memcopy, stream, scrub, mix,
	// producer-consumer (the mpsocsim workload names). With an external
	// Target, stream/scrub/mix/memcopy route every access through the
	// Local Ciphering Firewall on protected platforms.
	Workload string `json:"workload"`
	// Target is the access target for memory workloads: internal,
	// external, cipher or plain.
	Target string `json:"target"`
	// Accesses and Compute parameterize the workload (DefaultAccesses /
	// DefaultCompute when zero).
	Accesses int `json:"accesses"`
	Compute  int `json:"compute"`
	// MaxCycles is the cycle budget per run (DefaultMaxCycles when
	// zero).
	MaxCycles uint64 `json:"max_cycles"`
}

// Normalize fills defaulted fields in place and returns the config.
func (c Config) Normalize() Config {
	if c.NumCores == 0 {
		c.NumCores = 3
	}
	if c.Workload == "" {
		c.Workload = "mix"
	}
	if c.Target == "" {
		c.Target = "internal"
	}
	if c.Accesses == 0 {
		c.Accesses = DefaultAccesses
	}
	if c.Compute == 0 {
		c.Compute = DefaultCompute
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = DefaultMaxCycles
	}
	return c
}

// Name is the grid point's stable identifier.
func (c Config) Name() string {
	c = c.Normalize()
	return fmt.Sprintf("%s/%s/%s/c%d", c.Protection, c.Workload, c.Target, c.NumCores)
}

// RunResult is the outcome of one run: the grid position, the aggregate
// counters, and the per-core and per-firewall breakdowns snapshotted from
// the platform. Every field derives from the deterministic simulation (no
// wall-clock values), so identical configs yield identical results.
type RunResult struct {
	// Index is the run's global grid position — global even in sharded
	// sweeps, which is what lets Merge reconstruct the unsharded stream.
	Index      int    `json:"index"`
	Name       string `json:"name"`
	Protection string `json:"protection"`
	Workload   string `json:"workload"`
	Target     string `json:"target"`
	NumCores   int    `json:"num_cores"`

	Cycles    uint64 `json:"cycles"`
	AllHalted bool   `json:"all_halted"`

	// Aggregates summed over all cores.
	Instructions uint64 `json:"instructions"`
	StallCycles  uint64 `json:"stall_cycles"`
	BusOps       uint64 `json:"bus_ops"`
	BusErrors    uint64 `json:"bus_errors"`

	// Bus is the full interconnect breakdown (response classes, busy and
	// wait cycles, per-master transaction counts).
	Bus            bus.Stats `json:"bus"`
	BusUtilization float64   `json:"bus_utilization"`

	Alerts int `json:"alerts"`

	// Cores breaks the aggregates down per core; Firewalls snapshots
	// every security enforcement point (empty on the unprotected
	// platform).
	Cores     []soc.CoreStat  `json:"cores,omitempty"`
	Firewalls []core.Snapshot `json:"firewalls,omitempty"`

	Err string `json:"error,omitempty"`
}

// Grid builds the cross product of the given axes in deterministic order
// (protection outermost, core count innermost). Shared workload parameters
// apply to every point; zero values select the defaults.
func Grid(prots []soc.Protection, workloads, targets []string, coreCounts []int, accesses, compute int, maxCycles uint64) []Config {
	var grid []Config
	for _, p := range prots {
		for _, w := range workloads {
			for _, t := range targets {
				for _, n := range coreCounts {
					grid = append(grid, Config{
						Protection: p,
						NumCores:   n,
						Workload:   w,
						Target:     t,
						Accesses:   accesses,
						Compute:    compute,
						MaxCycles:  maxCycles,
					}.Normalize())
				}
			}
		}
	}
	return grid
}

// Shard selects a deterministic subset of a grid for one process of a
// multi-process sweep: shard Index of Count under the cost-balanced
// assignment computed by Slice (exact round-robin when all grid points
// weigh the same). The zero value selects the whole grid.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the mpsocsim -shard syntax "i/n". The empty string is
// the whole grid.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	// Strict i/n syntax: Sscanf would silently ignore trailing garbage
	// ("0/2,1/2" would run slice 0/2), and a mis-sharded sweep is a
	// silently incomplete dataset.
	is, cs, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want i/n)", s)
	}
	var sh Shard
	var err error
	if sh.Index, err = strconv.Atoi(is); err != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want i/n)", s)
	}
	if sh.Count, err = strconv.Atoi(cs); err != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want i/n)", s)
	}
	// Explicit syntax must name a real i-of-n slice — "0/0" is not the
	// whole-grid shorthand, the empty string is.
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return Shard{}, fmt.Errorf("sweep: shard %d/%d out of range", sh.Index, sh.Count)
	}
	return sh, nil
}

// normalized maps the zero value to the canonical whole-grid shard 0/1.
func (s Shard) normalized() Shard {
	if s.Count == 0 && s.Index == 0 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

// Validate reports whether the shard designates a coherent i-of-n slice.
func (s Shard) Validate() error {
	s = s.normalized()
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("sweep: shard %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// String renders the -shard syntax.
func (s Shard) String() string {
	s = s.normalized()
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Weight estimates the grid point's relative cost for shard balancing.
// The dominant driver is the protection architecture: a centralized run
// pays two extra protocol transactions per access against a serialized
// checker (~3x a generic run), a distributed run pays the per-interface
// Security Builder latency (~1.5x).
func (c Config) Weight() float64 {
	switch c.Protection {
	case soc.Centralized:
		return 3
	case soc.Distributed:
		return 1.5
	default:
		return 1
	}
}

// Weights maps Config.Weight over a grid, in the form Shard.Slice and
// Stream consume.
func Weights(cfgs []Config) []float64 {
	w := make([]float64, len(cfgs))
	for i, c := range cfgs {
		w[i] = c.Weight()
	}
	return w
}

// Each executes this shard's portion of the grid on a pool of workers
// (GOMAXPROCS when workers <= 0) and calls emit once per run, in ascending
// global grid index order, from the calling goroutine — see Stream for the
// reorder-buffer and cancellation contract. Shards slice the grid
// cost-aware (Weights), so multi-process sweeps balance wall-clock even
// though centralized grid points run ~3x longer.
func Each(cfgs []Config, sh Shard, workers int, emit func(RunResult) error) error {
	return EachContext(context.Background(), cfgs, sh, workers, emit)
}

// EachContext is Each with cancellation — see StreamContext for the
// contract a canceled context buys.
func EachContext(ctx context.Context, cfgs []Config, sh Shard, workers int, emit func(RunResult) error) error {
	return StreamContext(ctx, len(cfgs), sh, Weights(cfgs), workers, func(i int) RunResult {
		r := RunOne(cfgs[i])
		r.Index = i
		return r
	}, emit)
}

// RunOne builds and runs a single grid point. The caller owns Index; RunOne
// leaves it zero.
func RunOne(cfg Config) RunResult {
	cfg = cfg.Normalize()
	res := RunResult{
		Name:       cfg.Name(),
		Protection: cfg.Protection.String(),
		Workload:   cfg.Workload,
		Target:     cfg.Target,
		NumCores:   cfg.NumCores,
	}
	s, err := soc.New(soc.Config{Protection: cfg.Protection, NumCores: cfg.NumCores})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	tgt, span, err := ParseTarget(cfg.Target)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if err := LoadWorkload(s, cfg.Workload, tgt, span, cfg.Compute, cfg.Accesses); err != nil {
		res.Err = err.Error()
		return res
	}
	res.Cycles, res.AllHalted = s.Run(cfg.MaxCycles)
	res.Cores = s.CoreStats()
	for _, st := range res.Cores {
		res.Instructions += st.Instructions
		res.StallCycles += st.StallCycles
		res.BusOps += st.BusOps
		res.BusErrors += st.BusErrors
	}
	res.Bus = s.Bus.Stats()
	res.BusUtilization = res.Bus.Utilization(s.Eng.Now())
	res.Alerts = s.Alerts.Len()
	res.Firewalls = s.FirewallStats()
	return res
}

// WorkloadNames lists the accepted workload kernels in canonical order —
// the single list behind LoadWorkload, the mpsocsim -workload flag and
// spec validation.
func WorkloadNames() []string {
	return []string{"matmul", "memcopy", "stream", "scrub", "mix", "producer-consumer"}
}

// TargetNames lists the accepted access targets in canonical order.
func TargetNames() []string {
	return []string{"internal", "external", "cipher", "plain"}
}

// ParseTarget maps a target name to its base address and span.
func ParseTarget(s string) (base, span uint32, err error) {
	switch s {
	case "internal":
		return soc.BRAMBase, 0x1000, nil
	case "external":
		return soc.SecureBase, 0x1000, nil
	case "cipher":
		return soc.CipherBase, 0x1000, nil
	case "plain":
		return soc.PlainBase, 0x1000, nil
	default:
		return 0, 0, fmt.Errorf("sweep: unknown target %q", s)
	}
}

// LoadWorkload loads the named workload onto the platform (the same set
// mpsocsim exposes on the command line).
func LoadWorkload(s *soc.System, name string, tgt, span uint32, compute, accesses int) error {
	switch name {
	case "matmul":
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.MatMulLocal(12, soc.BRAMBase+0x40))
	case "memcopy":
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.MemCopy(tgt, tgt+span/2, accesses))
	case "stream":
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.Stream(tgt, accesses, 4, 0))
	case "scrub":
		s.HaltIdleCores(0)
		words := accesses
		if max := int(span / 4); words > max {
			words = max
		}
		s.MustLoad(0, workload.Scrub(tgt, words, 4))
	case "mix":
		for i := range s.Cores {
			s.MustLoad(i, workload.Mix(tgt+uint32(i)*span, span, 4, accesses, compute))
		}
	case "producer-consumer":
		if len(s.Cores) < 2 {
			return fmt.Errorf("sweep: producer-consumer needs >= 2 cores, have %d", len(s.Cores))
		}
		s.HaltIdleCores(0, 1)
		s.MustLoad(0, workload.Producer(soc.MboxBase, accesses))
		s.MustLoad(1, workload.Consumer(soc.MboxBase, accesses, soc.BRAMBase+0x80))
	default:
		return fmt.Errorf("sweep: unknown workload %q", name)
	}
	return nil
}
