package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportGoldens pins every -report mode to its committed rendering:
// Table I, Table II with the measured per-zone access costs, and the
// centralized platform's bill of materials.
func TestReportGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"report-table1.golden", []string{"-report", "table1"}},
		{"report-table2.golden", []string{"-report", "table2"}},
		{"report-bom-centralized.golden", []string{"-report", "bom", "-protection", "centralized"}},
	} {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runReport(o, &buf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%v drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.args, tc.golden, buf.Bytes(), want)
		}
	}
}

// TestReportRejects: -report runs alone, names a known table, and a bom
// needs a valid platform.
func TestReportRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-report", "table1", "-sweep"},
		{"-report", "table2", "-attack"},
		{"-report", "bom", "-modelcheck"},
		{"-report", "table3"},
		{"-report", "bom", "-protection", "seca"},
	} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := runReport(o, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestTraceGridGolden pins the Chrome trace of the trace-determinism
// gate's campaign (the Makefile's TRACE_GRID) byte for byte: sim-cycle
// timestamps, tid assignment, args and the closing otherData envelope.
func TestTraceGridGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	o, err := parseFlags([]string{"-attack",
		"-attack-scenarios", "burst-flood,zone-escape",
		"-sweep-protections", "unprotected,distributed",
		"-attack-cores", "3", "-attack-backgrounds", "stream",
		"-accesses", "256", "-inject-delay", "100", "-max", "2000000",
		"-recovery", "-recovery-staged", "-recovery-clear-delay", "1500",
		"-workers", "2", "-trace", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runAttack(o, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace-grid.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("campaign trace drifted from testdata/trace-grid.golden.json (%d vs %d bytes)", len(got), len(want))
	}
}
