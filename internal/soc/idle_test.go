package soc_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/workload"
)

// idleLoad is one platform load for the idle-skip equivalence test: it
// loads every core and returns the cores whose halting ends the run.
type idleLoad struct {
	name string
	load func(s *soc.System) []int
}

// offchip returns a load running kernel on every core, each over its own
// 1 KiB slice of the zone at base.
func offchip(name string, base uint32, kernel func(base uint32) string) idleLoad {
	return idleLoad{name, func(s *soc.System) []int {
		var cores []int
		for i := range s.Cores {
			s.MustLoad(i, kernel(base+uint32(i)*0x400))
			cores = append(cores, i)
		}
		return cores
	}}
}

// idleTranscript runs load on a fresh 4-core platform and renders every
// observable result: the cycle each recovery-style sampling window ended
// at, the closing RunUntilCores, core, bus and firewall counters, the LCF
// crypto counters and the alert log. With reference set, a no-op TickFunc
// pins the engine to stepping every cycle.
func idleTranscript(t *testing.T, p soc.Protection, l idleLoad, reference bool) []string {
	t.Helper()
	s, err := soc.New(soc.Config{Protection: p, NumCores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		s.Eng.AddTicker(sim.TickFunc(func(uint64) {}))
	}
	cores := l.load(s)
	var out []string
	const window = 1500
	for w := uint64(1); w <= 20; w++ {
		halted := s.RunToCycleOrHalted(w*window, cores...)
		out = append(out, fmt.Sprintf("window %d: now %d halted %v", w, s.Eng.Now(), halted))
		if halted {
			break
		}
	}
	cycles, ok := s.RunUntilCores(2_000_000, cores...)
	if !ok {
		t.Fatalf("cores %v did not halt", cores)
	}
	out = append(out,
		fmt.Sprintf("RunUntilCores = %d, now %d", cycles, s.Eng.Now()),
		fmt.Sprintf("cores %+v", s.CoreStats()),
		fmt.Sprintf("bus %+v", s.Bus.Stats()),
		fmt.Sprintf("firewalls %+v", s.FirewallStats()),
		fmt.Sprintf("alerts %+v", s.Alerts.All()))
	if s.LCF != nil {
		out = append(out, fmt.Sprintf("lcf crypto %+v", s.LCF.Crypto()))
	}
	return out
}

// TestIdleSkipMatchesPerCycleReference: platforms whose cores stall on the
// LCF and the bus, or share it with a core that never halts, must report
// exactly the same counters, alerts and run results whether the engine
// skips idle spans or steps every cycle.
func TestIdleSkipMatchesPerCycleReference(t *testing.T) {
	const words = 32
	secure := uint32(soc.SecureBase + 0x1000)
	loads := []idleLoad{
		offchip("secure-stream", secure, func(b uint32) string { return workload.Stream(b, words, 4, 0) }),
		offchip("secure-scrub", secure, func(b uint32) string { return workload.Scrub(b, words, 4) }),
		offchip("cipher-mix", soc.CipherBase+0x1000, func(b uint32) string { return workload.Mix(b, 0x400, 4, words, 4) }),
		offchip("stream", soc.BRAMBase, func(b uint32) string { return workload.Stream(b, words, 4, 0) }),
		{"flood", func(s *soc.System) []int {
			for i := 0; i < 3; i++ {
				s.MustLoad(i, workload.Scrub(secure+uint32(i)*0x400, words, 4))
			}
			s.MustLoad(3, workload.DoSFlood(soc.NodeBase)) // never halts
			return []int{0, 1, 2}
		}},
	}
	for _, p := range []soc.Protection{soc.Unprotected, soc.Distributed, soc.Centralized} {
		for _, l := range loads {
			t.Run(fmt.Sprintf("%v/%s", p, l.name), func(t *testing.T) {
				skip := idleTranscript(t, p, l, false)
				ref := idleTranscript(t, p, l, true)
				for i := range max(len(skip), len(ref)) {
					if i >= len(skip) || i >= len(ref) || skip[i] != ref[i] {
						t.Fatalf("line %d differs from the per-cycle reference\nskip: %.400s\nref:  %.400s",
							i, at(skip, i), at(ref, i))
					}
				}
			})
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
