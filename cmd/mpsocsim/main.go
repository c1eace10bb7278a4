// Command mpsocsim builds and runs the paper's multiprocessor platform.
//
// Examples:
//
//	mpsocsim -topology                         # print Figure 1
//	mpsocsim -workload matmul                  # compute-bound kernel on cpu0
//	mpsocsim -workload mix -compute 16 -target external -protection distributed
//	mpsocsim -workload producer-consumer -protection centralized
//	mpsocsim -sweep                            # concurrent scenario grid, streamed JSONL
//	mpsocsim -sweep -format csv -sweep-out report.csv
//	mpsocsim -sweep -shard 0/2 -sweep-out shard0.jsonl   # half the grid...
//	mpsocsim -sweep -shard 1/2 -sweep-out shard1.jsonl   # ...the other half
//	mpsocsim -sweep -merge shard0.jsonl,shard1.jsonl     # == the unsharded stream
//	mpsocsim -attack                           # attack campaign under benign load, JSONL
//	mpsocsim -attack -format table             # the paper's detection matrix
//	mpsocsim -attack -format csv -sweep-out campaign.csv # long/tidy rows for external tooling
//	mpsocsim -attack -recovery -format table   # + reaction & recovery table (quarantine/release/recovery)
//	mpsocsim -attack -recovery -trace incidents.json # Chrome trace_event JSON of every incident (Perfetto)
//	mpsocsim -modelcheck                       # prove invariants (a)-(d) over the bounded policy+reactor model
//	mpsocsim -report table1                    # the paper's Table I (area model)
//	mpsocsim -report table2                    # Table II (firewall latencies) + measured per-zone access costs
//	mpsocsim -report bom -protection centralized # bill of materials of one platform
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/area"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/hostobs"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/soc"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// options is the parsed command line, kept as a plain struct so flag
// handling is testable without touching process state.
type options struct {
	protection string
	topology   bool
	workload   string
	compute    int
	accesses   int
	target     string
	cores      int
	maxCycles  uint64
	extraRules int
	policyFile string
	dumpPol    bool

	doSweep    bool
	sweepProts string
	sweepWls   string
	sweepTgts  string
	sweepCores string
	sweepOut   string
	workers    int
	format     string
	shard      string
	merge      string

	doAttack    bool
	attackScens string
	attackBgs   string
	attackCores string
	injectDelay uint64

	doModelcheck bool

	report string

	specFile string
	dumpSpec bool
	// spec is the loaded -spec file (nil without one); set records which
	// flags were explicitly passed, for spec overriding.
	spec *spec.Spec
	set  map[string]bool

	recovery      bool
	recThreshold  int
	recWindow     uint64
	recClearDelay uint64
	recStaged     bool
	recStageDelay uint64
	recSample     uint64
	recEpsilon    float64

	traceFile  string
	traceLimit int

	version bool
}

// recoveryParams folds the -recovery* flags into the campaign's phase
// parameters (zero when -recovery is off).
func (o *options) recoveryParams() recovery.Params {
	if !o.recovery {
		return recovery.Params{}
	}
	return recovery.Params{
		QuarantineThreshold: o.recThreshold,
		QuarantineWindow:    o.recWindow,
		ClearDelay:          o.recClearDelay,
		Staged:              o.recStaged,
		StageDelay:          o.recStageDelay,
		SampleWindow:        o.recSample,
		Epsilon:             o.recEpsilon,
	}.Normalize()
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("mpsocsim", flag.ContinueOnError)
	fs.StringVar(&o.protection, "protection", "distributed", "unprotected | distributed | centralized")
	fs.BoolVar(&o.topology, "topology", false, "print the platform topology (Figure 1) and exit")
	fs.StringVar(&o.workload, "workload", "matmul", "matmul | memcopy | stream | scrub | mix | producer-consumer")
	fs.IntVar(&o.compute, "compute", 16, "mix: compute iterations per access")
	fs.IntVar(&o.accesses, "accesses", 200, "mix/stream: number of accesses")
	fs.StringVar(&o.target, "target", "internal", "mix/stream target: internal | external | cipher | plain")
	fs.IntVar(&o.cores, "cores", 3, "number of processor cores")
	fs.Uint64Var(&o.maxCycles, "max", 100_000_000, "cycle budget")
	fs.IntVar(&o.extraRules, "extra-rules", 0, "pad every firewall with N extra rules")
	fs.StringVar(&o.policyFile, "core-policy", "", "JSON file replacing the per-core master policy (distributed only)")
	fs.BoolVar(&o.dumpPol, "dump-policies", false, "print the platform's security policies as JSON and exit")

	fs.BoolVar(&o.doSweep, "sweep", false, "run a protection x workload x core-count scenario grid concurrently and stream a report")
	fs.StringVar(&o.sweepProts, "sweep-protections", "unprotected,distributed,centralized", "sweep: protections axis")
	fs.StringVar(&o.sweepWls, "sweep-workloads", "mix,stream", "sweep: workloads axis")
	fs.StringVar(&o.sweepTgts, "sweep-targets", "internal", "sweep: targets axis")
	fs.StringVar(&o.sweepCores, "sweep-cores", "1,2,4", "sweep: core-count axis")
	fs.StringVar(&o.sweepOut, "sweep-out", "", "sweep: report file (stdout when empty)")
	fs.IntVar(&o.workers, "workers", 0, "sweep: worker goroutines (GOMAXPROCS when 0)")
	fs.StringVar(&o.format, "format", "jsonl", "output format: jsonl | csv (-sweep, -attack) | table (-attack)")
	fs.StringVar(&o.shard, "shard", "", "sweep: run only grid slice i/n of the full grid (e.g. 0/2)")
	fs.StringVar(&o.merge, "merge", "", "sweep: merge comma-separated shard JSONL files instead of running")

	fs.BoolVar(&o.doAttack, "attack", false, "run the attack campaign: scenario x protection x cores x background, streamed like -sweep")
	fs.StringVar(&o.attackScens, "attack-scenarios", strings.Join(attack.DefaultNames(), ","),
		"attack: scenario axis")
	fs.StringVar(&o.attackBgs, "attack-backgrounds", campaign.DefaultBackground,
		"attack: benign background kernels on non-attacker cores ("+
			strings.Join(campaign.BackgroundNames(), " | ")+" | none); the secure-*/cipher-* kernels run in external memory, through the LCF")
	fs.StringVar(&o.attackCores, "attack-cores", "3", "attack: core-count axis")
	fs.Uint64Var(&o.injectDelay, "inject-delay", campaign.DefaultInjectDelay,
		"attack: cycles after background start at which the attack fires; must be shorter than the background's runtime (0 selects the default, use 1 to fire at start)")

	fs.BoolVar(&o.doModelcheck, "modelcheck", false,
		"exhaustively model-check the firewall policy + quarantine reactor automaton (internal/modelcheck) and print the proof summary")
	fs.StringVar(&o.report, "report", "",
		"print a paper table and exit: table1 (Table I, area) | table2 (Table II, firewall latencies, plus measured per-zone access costs) | bom (bill of materials of the -protection platform)")

	fs.StringVar(&o.specFile, "spec", "",
		"versioned JSON spec file driving the run (the same body mpsocd accepts); explicitly-passed axis flags override spec fields, and the run mode follows the spec's kind unless -sweep/-attack is given")
	fs.BoolVar(&o.dumpSpec, "dump-spec", false,
		"print the run's effective spec as JSON and exit (with -sweep, -attack or -spec)")

	fs.BoolVar(&o.recovery, "recovery", false,
		"attack: run the reaction-and-recovery phase — arm the quarantine reactor (distributed platforms), release on a supervisor schedule, and sample background throughput against the twin")
	fs.IntVar(&o.recThreshold, "recovery-threshold", recovery.DefaultThreshold,
		"recovery: violations tripping quarantine")
	fs.Uint64Var(&o.recWindow, "recovery-alert-window", 0,
		"recovery: reactor sliding alert window in cycles (0 = ever)")
	fs.Uint64Var(&o.recClearDelay, "recovery-clear-delay", recovery.DefaultClearDelay,
		"recovery: cycles from quarantine to the supervisor clearing the incident")
	fs.BoolVar(&o.recStaged, "recovery-staged", false,
		"recovery: staged re-admission — integrity-monitored zones first, full policy after -recovery-stage-delay, one probation violation re-quarantines")
	fs.Uint64Var(&o.recStageDelay, "recovery-stage-delay", recovery.DefaultStageDelay,
		"recovery: probation length before the full restore (with -recovery-staged)")
	fs.Uint64Var(&o.recSample, "recovery-sample", recovery.DefaultSampleWindow,
		"recovery: throughput sampling window in cycles")
	fs.Float64Var(&o.recEpsilon, "recovery-epsilon", recovery.DefaultEpsilon,
		"recovery: recovered when a post-release window is within this fraction of twin throughput")

	fs.StringVar(&o.traceFile, "trace", "",
		"write a Chrome trace_event JSON incident trace (Perfetto/chrome://tracing) to this file; single runs and -attack JSONL campaigns, timestamps in sim cycles")
	fs.IntVar(&o.traceLimit, "trace-limit", obs.DefaultLimit,
		"trace: events retained per run before counting drops")
	fs.BoolVar(&o.version, "version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return nil, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		// The FlagSet already printed the error (and usage); -h is a
		// clean exit.
		if err == flag.ErrHelp {
			return
		}
		os.Exit(2)
	}
	if o.version {
		fmt.Println("mpsocsim", hostobs.Build().String())
		return
	}
	if o.specFile != "" {
		if err := o.loadSpec(); err != nil {
			fatal(err)
		}
	}
	if o.dumpSpec {
		if err := runDumpSpec(o); err != nil {
			fatal(err)
		}
		return
	}
	if o.traceFile != "" {
		if o.traceLimit < 1 {
			fatal(fmt.Errorf("-trace-limit must be >= 1 with -trace (got %d)", o.traceLimit))
		}
		if o.doSweep {
			fatal(fmt.Errorf("-trace applies to single runs and -attack campaigns, not -sweep"))
		}
		if o.doModelcheck {
			fatal(fmt.Errorf("-trace does not apply to -modelcheck"))
		}
	}
	switch {
	case o.report != "":
		if err := runReport(o, os.Stdout); err != nil {
			fatal(err)
		}
	case o.doSweep && o.doAttack:
		fatal(fmt.Errorf("-sweep and -attack are mutually exclusive"))
	case o.doModelcheck && (o.doSweep || o.doAttack):
		fatal(fmt.Errorf("-modelcheck runs alone (mutually exclusive with -sweep/-attack)"))
	case o.doModelcheck:
		if err := runModelcheck(os.Stdout); err != nil {
			fatal(err)
		}
	case o.doAttack:
		if err := withOutput(o, runAttack); err != nil {
			fatal(err)
		}
	case o.doSweep:
		if err := withOutput(o, runSweep); err != nil {
			fatal(err)
		}
	default:
		if err := runSingle(o); err != nil {
			fatal(err)
		}
	}
}

// runSingle is the one-platform, one-workload mode.
func runSingle(o *options) error {
	prot, err := spec.ParseProtection(o.protection)
	if err != nil {
		return err
	}
	var corePolicies []core.Policy
	if o.policyFile != "" {
		data, err := os.ReadFile(o.policyFile)
		if err != nil {
			return err
		}
		if corePolicies, err = core.PoliciesFromJSON(data); err != nil {
			return err
		}
	}
	s, err := soc.New(soc.Config{
		Protection:      prot,
		NumCores:        o.cores,
		ExtraRulesPerLF: o.extraRules,
		CorePolicies:    corePolicies,
	})
	if err != nil {
		return err
	}
	if o.topology {
		fmt.Print(s.Topology())
		return nil
	}
	if o.dumpPol {
		return dumpPolicies(s)
	}

	tgt, span, err := sweep.ParseTarget(o.target)
	if err != nil {
		return err
	}
	if err := sweep.LoadWorkload(s, o.workload, tgt, span, o.compute, o.accesses); err != nil {
		return err
	}

	var tr *obs.Tracer
	if o.traceFile != "" {
		tr = obs.New(o.traceLimit)
		obs.Attach(tr, s)
	}
	cycles, ok := s.Run(o.maxCycles)
	if !ok {
		fmt.Fprintf(os.Stderr, "warning: cycle budget exhausted before all cores halted\n")
	}
	if tr != nil {
		obs.Harvest(tr, s)
		name := fmt.Sprintf("%s/%s", o.workload, s.Cfg.Protection)
		if err := writeTraceFile(o.traceFile, name, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n",
			tr.Len(), tr.Dropped(), o.traceFile)
	}
	printSummary(s, cycles)
	return nil
}

// writeTraceFile renders a single-run trace document to path.
func writeTraceFile(path, process string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f, process); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildGrid constructs the sweep grid through the spec layer — the same
// grid an mpsocd-submitted spec produces (validation errors carry spec
// field paths like "sweep.workloads[1]").
func buildGrid(o *options) ([]sweep.Config, error) {
	sp, err := o.resolveSpec(spec.KindSweep)
	if err != nil {
		return nil, err
	}
	return sp.Sweep.Grid()
}

// withOutput resolves the -sweep-out destination (stdout when empty) and
// runs the given mode into it.
func withOutput(o *options, run func(*options, io.Writer) error) error {
	if o.sweepOut == "" {
		return run(o, os.Stdout)
	}
	f, err := os.Create(o.sweepOut)
	if err != nil {
		return err
	}
	if err := run(o, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSweep executes the grid (or merges shard files) and streams the report
// to w.
func runSweep(o *options, w io.Writer) error {
	if o.merge != "" {
		if o.format != "jsonl" {
			return fmt.Errorf("-merge only supports JSONL shard streams (got -format %s)", o.format)
		}
		return mergeShards(o.merge, w)
	}
	grid, err := buildGrid(o)
	if err != nil {
		return err
	}
	sh, err := sweep.ParseShard(o.shard)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: shard %s of %d configurations (%s)\n", sh, len(grid), o.format)
	switch o.format {
	case "jsonl":
		return sweep.WriteJSONL(w, grid, sh, o.workers)
	case "csv":
		return sweep.WriteCSV(w, grid, sh, o.workers)
	default:
		return fmt.Errorf("unknown sweep format %q (want jsonl or csv)", o.format)
	}
}

// runReport prints one of the paper's tables: Table I from the area
// model, Table II with the Security Builder latency and per-zone access
// costs measured on live platforms, or the bill of materials of the
// -protection platform.
func runReport(o *options, w io.Writer) error {
	if o.doSweep || o.doAttack || o.doModelcheck {
		return fmt.Errorf("-report runs alone (mutually exclusive with -sweep/-attack/-modelcheck)")
	}
	switch o.report {
	case "table1":
		_, err := io.WriteString(w, area.RenderTable1())
		return err
	case "table2":
		text, _ := area.RenderTable2()
		_, err := io.WriteString(w, text)
		return err
	case "bom":
		prot, err := spec.ParseProtection(o.protection)
		if err != nil {
			return err
		}
		s, err := soc.New(soc.Config{Protection: prot})
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, area.RenderReport(area.FromSystem(s)))
		return err
	default:
		return fmt.Errorf("unknown report %q (want table1, table2 or bom)", o.report)
	}
}

// mergeShards recombines shard JSONL files into the unsharded stream.
func mergeShards(list string, w io.Writer) error {
	paths := splitList(list)
	if len(paths) == 0 {
		return fmt.Errorf("-merge: no shard files given")
	}
	readers := make([]io.Reader, 0, len(paths))
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	return sweep.Merge(w, readers...)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func printSummary(s *soc.System, cycles uint64) {
	fmt.Printf("protection=%s cycles=%s (%.3f ms simulated at %s)\n",
		s.Cfg.Protection, trace.Comma(cycles), s.Eng.Elapsed()*1e3, s.Eng.Frequency())

	tb := trace.NewTable("cores", "core", "instructions", "CPI", "bus ops", "stall cycles", "bus errors", "halt")
	for _, c := range s.Cores {
		st := c.Stats()
		_, cause := c.Halted()
		tb.AddRow(c.Name(), trace.Comma(st.Instructions), fmt.Sprintf("%.2f", st.CPI()),
			trace.Comma(st.BusOps), trace.Comma(st.StallCycles), trace.Comma(st.BusErrors),
			cause.String())
	}
	fmt.Print(tb.String())

	bst := s.Bus.Stats()
	fmt.Printf("bus: %s transactions, utilization %.1f%%, wait %s cycles, %s bits moved\n",
		trace.Comma(bst.Completed), bst.Utilization(s.Eng.Now())*100,
		trace.Comma(bst.WaitCycles), trace.Comma(bst.BitsMoved))

	if fws := s.FirewallStats(); len(fws) > 0 {
		ft := trace.NewTable("firewalls", "id", "kind", "checked", "allowed", "blocked", "check cycles")
		for _, f := range fws {
			ft.AddRow(f.ID, f.Kind, trace.Comma(f.Checked), trace.Comma(f.Allowed),
				trace.Comma(f.Blocked), trace.Comma(f.CheckCycles))
		}
		fmt.Print(ft.String())
	}

	if s.LCF != nil {
		cs := s.LCF.Crypto()
		fmt.Printf("lcf: %d enc / %d dec blocks, %d leaf verifies (%d failures), CC %s cycles, IC %s cycles\n",
			cs.BlocksEnciphered, cs.BlocksDeciphered, cs.LeafVerifies, cs.IntegrityFailures,
			trace.Comma(cs.CCCycles), trace.Comma(cs.ICCycles))
	}
	if s.SEM != nil {
		st := s.SEM.Stats()
		fmt.Printf("sem: %d checks, %d denied, max queue %d, stall %s cycles\n",
			st.Checks, st.Denied, st.MaxQueue, trace.Comma(st.StallCycles))
	}
	if s.Alerts.Len() > 0 {
		fmt.Printf("alerts (%d):\n", s.Alerts.Len())
		for _, a := range s.Alerts.All() {
			fmt.Printf("  %s\n", a)
		}
	} else {
		fmt.Println("alerts: none")
	}
}

// dumpPolicies prints every firewall's rule set as JSON.
func dumpPolicies(s *soc.System) error {
	emit := func(name string, rules []core.Policy) error {
		data, err := core.PoliciesToJSON(rules)
		if err != nil {
			return err
		}
		fmt.Printf("// %s\n%s\n", name, data)
		return nil
	}
	switch s.Cfg.Protection {
	case soc.Distributed:
		if err := emit("core master policy (lf-cpu*)", s.CoreFWs[0].Config().Policies()); err != nil {
			return err
		}
		return emit("external memory policy (lcf-ddr)", s.LCF.Config().Policies())
	case soc.Centralized:
		return emit("global SEM policy", s.SEM.Config().Policies())
	default:
		fmt.Println("// unprotected platform: no policies")
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpsocsim:", err)
	os.Exit(1)
}
