package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/soc"
	"repro/internal/spec"
	"repro/internal/sweep"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.protection != "distributed" || o.workload != "matmul" || o.cores != 3 {
		t.Fatalf("bad defaults: %+v", o)
	}
	if o.format != "jsonl" || o.shard != "" || o.merge != "" {
		t.Fatalf("bad sweep defaults: %+v", o)
	}
	if o.maxCycles != 100_000_000 {
		t.Fatalf("max cycles default = %d", o.maxCycles)
	}
}

func TestParseFlagsSweep(t *testing.T) {
	o, err := parseFlags([]string{
		"-sweep", "-format", "csv", "-shard", "1/4",
		"-sweep-cores", "1,2", "-sweep-workloads", "mix",
		"-workers", "7", "-sweep-out", "x.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.doSweep || o.format != "csv" || o.shard != "1/4" || o.workers != 7 || o.sweepOut != "x.csv" {
		t.Fatalf("sweep flags not parsed: %+v", o)
	}
}

func TestParseFlagsRejectsGarbage(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-cores", "many"},
		{"stray-positional"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestParseProtection(t *testing.T) {
	for name, want := range map[string]soc.Protection{
		"unprotected": soc.Unprotected,
		"distributed": soc.Distributed,
		"centralized": soc.Centralized,
	} {
		p, err := spec.ParseProtection(name)
		if err != nil || p != want {
			t.Fatalf("ParseProtection(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := spec.ParseProtection("seca"); err == nil {
		t.Fatal("unknown protection accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if strings.Join(got, "|") != "a|b|c" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty list should be nil")
	}
}

func TestBuildGridHonorsAxes(t *testing.T) {
	o, err := parseFlags([]string{"-sweep",
		"-sweep-protections", "unprotected,distributed",
		"-sweep-workloads", "mix", "-sweep-targets", "internal",
		"-sweep-cores", "1,2,4"})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := buildGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 6 {
		t.Fatalf("grid size %d, want 6", len(grid))
	}
	if _, err := buildGrid(&options{sweepProts: "bogus", sweepCores: "1"}); err == nil {
		t.Fatal("bogus protection accepted")
	}
	if _, err := buildGrid(&options{sweepProts: "unprotected", sweepCores: "two"}); err == nil {
		t.Fatal("bogus core count accepted")
	}
	if _, err := buildGrid(&options{}); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// sweepArgs is a tiny fast grid used by the end-to-end CLI tests.
func sweepArgs(extra ...string) []string {
	return append([]string{"-sweep",
		"-sweep-protections", "unprotected,distributed",
		"-sweep-workloads", "mix", "-sweep-cores", "1,2",
		"-accesses", "8", "-compute", "2", "-max", "500000",
	}, extra...)
}

func runCLISweep(t *testing.T, extra ...string) []byte {
	t.Helper()
	o, err := parseFlags(sweepArgs(extra...))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSweep(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunSweepJSONL(t *testing.T) {
	out := runCLISweep(t)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("%d result lines, want 4", len(lines))
	}
	var r sweep.RunResult
	if err := json.Unmarshal(lines[0], &r); err != nil {
		t.Fatal(err)
	}
	if r.Name != "unprotected/mix/internal/c1" {
		t.Fatalf("first run %q", r.Name)
	}
}

func TestRunSweepFormats(t *testing.T) {
	csvOut := runCLISweep(t, "-format", "csv")
	if !bytes.HasPrefix(csvOut, []byte("index,name,protection")) {
		t.Fatalf("csv output: %.60s", csvOut)
	}
	// JSONL and CSV are the only sweep outputs.
	for _, format := range []string{"json", "yaml"} {
		o, err := parseFlags(sweepArgs("-format", format))
		if err != nil {
			t.Fatal(err)
		}
		if err := runSweep(o, &bytes.Buffer{}); err == nil {
			t.Fatalf("format %q accepted", format)
		}
	}
}

// TestShardMergeCLIRoundTrip drives the exact workflow the CI determinism
// job runs: two shard processes, merged, must reproduce the unsharded
// stream byte-for-byte.
func TestShardMergeCLIRoundTrip(t *testing.T) {
	full := runCLISweep(t, "-workers", "3")
	dir := t.TempDir()
	p0 := filepath.Join(dir, "shard0.jsonl")
	p1 := filepath.Join(dir, "shard1.jsonl")
	if err := os.WriteFile(p0, runCLISweep(t, "-shard", "0/2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p1, runCLISweep(t, "-shard", "1/2"), 0o644); err != nil {
		t.Fatal(err)
	}
	merged := runCLISweep(t, "-merge", p0+","+p1)
	if !bytes.Equal(full, merged) {
		t.Fatalf("merged shards != unsharded stream:\n%s\n---\n%s", full, merged)
	}
	o, err := parseFlags(sweepArgs("-merge", filepath.Join(dir, "missing.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if err := runSweep(o, &bytes.Buffer{}); err == nil {
		t.Fatal("missing shard file accepted")
	}
	// Merging only one of two shards is an incomplete dataset, not a
	// success.
	if o, err = parseFlags(sweepArgs("-merge", p1)); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(o, &bytes.Buffer{}); err == nil {
		t.Fatal("partial merge accepted")
	}
	// -merge emits JSONL only; other formats must be rejected, not
	// silently ignored.
	if o, err = parseFlags(sweepArgs("-merge", p0+","+p1, "-format", "csv")); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(o, &bytes.Buffer{}); err == nil {
		t.Fatal("-merge with -format csv accepted")
	}
}

func TestBadShardRejected(t *testing.T) {
	o, err := parseFlags(sweepArgs("-shard", "2/2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runSweep(o, &bytes.Buffer{}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// --- attack-campaign mode ---

func TestParseFlagsAttackDefaults(t *testing.T) {
	o, err := parseFlags([]string{"-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.doAttack || o.attackCores != "3" || o.attackBgs != "stream" {
		t.Fatalf("bad attack defaults: %+v", o)
	}
	if o.injectDelay == 0 || o.attackScens == "" {
		t.Fatalf("bad attack defaults: %+v", o)
	}
}

func TestBuildCampaignGridHonorsAxes(t *testing.T) {
	o, err := parseFlags([]string{"-attack",
		"-attack-scenarios", "tamper,dos-flood",
		"-sweep-protections", "unprotected,distributed",
		"-attack-cores", "2,3", "-attack-backgrounds", "stream,none"})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := buildCampaignGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 16 {
		t.Fatalf("grid size %d, want 16", len(grid))
	}
	if _, err := buildCampaignGrid(&options{sweepProts: "bogus", attackCores: "1", attackScens: "tamper"}); err == nil {
		t.Fatal("bogus protection accepted")
	}
	if _, err := buildCampaignGrid(&options{sweepProts: "unprotected", attackCores: "two", attackScens: "tamper"}); err == nil {
		t.Fatal("bogus core count accepted")
	}
	if _, err := buildCampaignGrid(&options{}); err == nil {
		t.Fatal("empty campaign grid accepted")
	}
}

// attackArgs is a tiny fast campaign grid for the end-to-end CLI tests.
func attackArgs(extra ...string) []string {
	return append([]string{"-attack",
		"-attack-scenarios", "tamper,zone-escape",
		"-sweep-protections", "unprotected,distributed",
		"-attack-cores", "3", "-accesses", "24", "-inject-delay", "100",
		"-max", "1000000",
	}, extra...)
}

func runCLIAttack(t *testing.T, extra ...string) []byte {
	t.Helper()
	o, err := parseFlags(attackArgs(extra...))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runAttack(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunAttackJSONL(t *testing.T) {
	out := runCLIAttack(t)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("%d result lines, want 4", len(lines))
	}
	var r campaign.Record
	if err := json.Unmarshal(lines[0], &r); err != nil {
		t.Fatal(err)
	}
	if r.Name != "tamper/unprotected/stream/c3" {
		t.Fatalf("first run %q", r.Name)
	}
	if r.Err != "" {
		t.Fatalf("first run failed: %s", r.Err)
	}
}

func TestRunAttackFormats(t *testing.T) {
	csvOut := runCLIAttack(t, "-format", "csv")
	if !bytes.HasPrefix(csvOut, []byte("index,name,scenario,protection")) {
		t.Fatalf("csv output: %.60s", csvOut)
	}
	table := runCLIAttack(t, "-format", "table")
	for _, want := range []string{"containment matrix", "bystander cost", "zone-escape", "caught by"} {
		if !bytes.Contains(table, []byte(want)) {
			t.Fatalf("table output missing %q:\n%s", want, table)
		}
	}
	o, err := parseFlags(attackArgs("-format", "yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runAttack(o, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown attack format accepted")
	}
}

// TestAttackShardMergeCLIRoundTrip mirrors the CI determinism job for the
// campaign: two shard processes, merged, must reproduce the unsharded
// stream byte-for-byte.
func TestAttackShardMergeCLIRoundTrip(t *testing.T) {
	full := runCLIAttack(t, "-workers", "3")
	dir := t.TempDir()
	p0 := filepath.Join(dir, "shard0.jsonl")
	p1 := filepath.Join(dir, "shard1.jsonl")
	if err := os.WriteFile(p0, runCLIAttack(t, "-shard", "0/2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p1, runCLIAttack(t, "-shard", "1/2"), 0o644); err != nil {
		t.Fatal(err)
	}
	merged := runCLIAttack(t, "-merge", p0+","+p1)
	if !bytes.Equal(full, merged) {
		t.Fatalf("merged attack shards != unsharded stream:\n%s\n---\n%s", full, merged)
	}
}

func TestSweepAndAttackMutuallyExclusiveFlagsParse(t *testing.T) {
	// Parsing accepts both flags (main rejects the combination); make sure
	// at least the options carry both so main can see the conflict.
	o, err := parseFlags([]string{"-sweep", "-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.doSweep || !o.doAttack {
		t.Fatalf("flags lost: %+v", o)
	}
}

// --- reaction-and-recovery mode ---

func TestParseFlagsRecoveryDefaults(t *testing.T) {
	o, err := parseFlags([]string{"-attack"})
	if err != nil {
		t.Fatal(err)
	}
	if o.recovery {
		t.Fatal("recovery on by default")
	}
	if p := o.recoveryParams(); p.Enabled() {
		t.Fatalf("disabled recovery yields enabled params: %+v", p)
	}
	o, err = parseFlags([]string{"-attack", "-recovery", "-recovery-staged",
		"-recovery-threshold", "5", "-recovery-clear-delay", "7000"})
	if err != nil {
		t.Fatal(err)
	}
	p := o.recoveryParams()
	if !p.Enabled() || p.QuarantineThreshold != 5 || p.ClearDelay != 7000 || !p.Staged {
		t.Fatalf("recovery flags not parsed: %+v", p)
	}
	if p.SampleWindow == 0 || p.Epsilon == 0 || p.StageDelay == 0 {
		t.Fatalf("recovery defaults not normalized: %+v", p)
	}
	grid, err := buildCampaignGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	if !grid[0].Recovery.Enabled() {
		t.Fatal("-recovery did not arm the grid")
	}
}

// TestRunAttackRecoveryTable drives the acceptance scenario end to end:
// the table output must carry the reaction & recovery columns, with the
// distributed platform quarantining, releasing and recovering while the
// centralized baseline never quarantines.
func TestRunAttackRecoveryTable(t *testing.T) {
	o, err := parseFlags([]string{"-attack",
		"-attack-scenarios", "burst-flood",
		"-sweep-protections", "unprotected,distributed,centralized",
		"-attack-cores", "3", "-accesses", "512", "-inject-delay", "100",
		"-max", "2000000", "-format", "table",
		"-recovery", "-recovery-clear-delay", "8000",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runAttack(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"reaction & recovery",
		"recovered +", // the distributed platform's full lifecycle
		"no quarantine",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("recovery table missing %q:\n%s", want, out)
		}
	}
}

// TestRunAttackRecoveryJSONLDeterministic mirrors the CI recovery
// determinism gate at test scale.
func TestRunAttackRecoveryJSONLDeterministic(t *testing.T) {
	args := func(extra ...string) []string {
		return append(attackArgs("-recovery", "-recovery-staged"), extra...)
	}
	run := func(extra ...string) []byte {
		o, err := parseFlags(args(extra...))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runAttack(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run("-workers", "1"), run("-workers", "6")
	if !bytes.Equal(a, b) {
		t.Fatal("recovery-enabled attack stream differs across worker counts")
	}
	if !bytes.Contains(a, []byte(`"recovery":true`)) {
		t.Fatalf("stream does not carry the recovery marker:\n%s", a)
	}
}

// TestRunModelcheckSmoke is the CLI face of the `make modelcheck` gate:
// the proof over the default bounded model passes and reports
// deterministic state/transition counts.
func TestRunModelcheckSmoke(t *testing.T) {
	o, err := parseFlags([]string{"-modelcheck"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.doModelcheck {
		t.Fatal("-modelcheck flag not parsed")
	}
	var a, b bytes.Buffer
	if err := runModelcheck(&a); err != nil {
		t.Fatalf("modelcheck failed: %v\n%s", err, a.String())
	}
	if err := runModelcheck(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("modelcheck report differs across runs:\n%s\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "invariants (a)-(d): PASS") {
		t.Fatalf("unexpected report: %s", a.String())
	}
}
