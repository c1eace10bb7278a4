package sweep_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/sweep"
)

func smallGrid() []sweep.Config {
	return sweep.Grid(
		[]soc.Protection{soc.Unprotected, soc.Distributed},
		[]string{"mix", "stream"},
		[]string{"internal"},
		[]int{1, 3},
		16, 4, 500_000,
	)
}

func TestGridCrossProduct(t *testing.T) {
	grid := smallGrid()
	if len(grid) != 8 {
		t.Fatalf("grid size = %d, want 8", len(grid))
	}
	// Deterministic order: protection outermost, core count innermost.
	if grid[0].Name() != "unprotected/mix/internal/c1" {
		t.Fatalf("grid[0] = %s", grid[0].Name())
	}
	if grid[7].Name() != "distributed-firewalls/stream/internal/c3" {
		t.Fatalf("grid[7] = %s", grid[7].Name())
	}
}

// runAll collects a whole-grid sweep through sweep.Each, in grid order.
func runAll(t *testing.T, grid []sweep.Config, workers int) []sweep.RunResult {
	t.Helper()
	var out []sweep.RunResult
	if err := sweep.Each(grid, sweep.Shard{}, workers, func(r sweep.RunResult) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSweepRunsComplete(t *testing.T) {
	results := runAll(t, smallGrid(), 0)
	if len(results) != 8 {
		t.Fatalf("%d results, want 8", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d carries index %d", i, r.Index)
		}
		if r.Err != "" {
			t.Fatalf("%s failed: %s", r.Name, r.Err)
		}
		if !r.AllHalted {
			t.Fatalf("%s did not halt within budget (cycles=%d)", r.Name, r.Cycles)
		}
		if r.Instructions == 0 || r.Bus.Completed == 0 {
			t.Fatalf("%s reports empty stats: %+v", r.Name, r)
		}
		if len(r.Cores) != r.NumCores {
			t.Fatalf("%s: %d core breakdowns for %d cores", r.Name, len(r.Cores), r.NumCores)
		}
	}
}

// TestPerFirewallBreakdown: the per-firewall evidence the paper's argument
// rests on must be present — every distributed run carries snapshots for
// each enforcement point, with the core firewalls actually checking
// transfers, and unprotected runs carry none.
func TestPerFirewallBreakdown(t *testing.T) {
	for _, r := range runAll(t, smallGrid(), 2) {
		switch r.Protection {
		case "unprotected":
			if len(r.Firewalls) != 0 {
				t.Fatalf("%s: unexpected firewall stats %+v", r.Name, r.Firewalls)
			}
		case "distributed-firewalls":
			// numCores master LFs + lf-dma + 4 slave LFs + the LCF.
			want := r.NumCores + 6
			if len(r.Firewalls) != want {
				t.Fatalf("%s: %d firewall snapshots, want %d", r.Name, len(r.Firewalls), want)
			}
			var checked uint64
			for _, f := range r.Firewalls {
				if f.ID == "" || f.Kind == "" {
					t.Fatalf("%s: unlabeled snapshot %+v", r.Name, f)
				}
				checked += f.Checked
			}
			if checked == 0 {
				t.Fatalf("%s: firewalls checked nothing", r.Name)
			}
		}
	}
}

// TestProtectionOverheadVisibleInSweep: the sweep must reproduce the
// paper's headline qualitative result — distributed firewalls cost cycles
// versus the unprotected platform on the same workload.
func TestProtectionOverheadVisibleInSweep(t *testing.T) {
	byName := map[string]sweep.RunResult{}
	for _, r := range runAll(t, smallGrid(), 2) {
		byName[r.Name] = r
	}
	un := byName["unprotected/mix/internal/c3"]
	di := byName["distributed-firewalls/mix/internal/c3"]
	if un.Cycles == 0 || di.Cycles <= un.Cycles {
		t.Fatalf("protection overhead not visible: unprotected %d vs distributed %d cycles",
			un.Cycles, di.Cycles)
	}
}

// TestScrubWorkloadSweepsExternalMemory: the scrub kernel is the sweep's
// secured read-modify-write axis — on the distributed platform with an
// external target every access crosses the LCF, which must be visible (and
// costly in simulated cycles) relative to the unprotected run.
func TestScrubWorkloadSweepsExternalMemory(t *testing.T) {
	un := sweep.RunOne(sweep.Config{Protection: soc.Unprotected, Workload: "scrub",
		Target: "external", Accesses: 16})
	di := sweep.RunOne(sweep.Config{Protection: soc.Distributed, Workload: "scrub",
		Target: "external", Accesses: 16})
	if un.Err != "" || di.Err != "" {
		t.Fatalf("scrub runs failed: %q %q", un.Err, di.Err)
	}
	if !un.AllHalted || !di.AllHalted {
		t.Fatal("scrub did not finish")
	}
	if di.Cycles <= un.Cycles {
		t.Fatalf("LCF cost invisible: distributed %d <= unprotected %d cycles", di.Cycles, un.Cycles)
	}
	var lcfChecked uint64
	for _, f := range di.Firewalls {
		if f.Kind == core.KindCipherLF {
			lcfChecked = f.Checked
		}
	}
	if lcfChecked == 0 {
		t.Fatal("scrub traffic never reached the LCF")
	}
}

func TestRunOneRejectsBadConfigs(t *testing.T) {
	if r := sweep.RunOne(sweep.Config{Workload: "nope"}); r.Err == "" {
		t.Fatal("unknown workload accepted")
	}
	if r := sweep.RunOne(sweep.Config{Workload: "mix", Target: "nope"}); r.Err == "" {
		t.Fatal("unknown target accepted")
	}
	if r := sweep.RunOne(sweep.Config{Workload: "producer-consumer", NumCores: 1}); r.Err == "" {
		t.Fatal("producer-consumer on one core accepted")
	}
}
