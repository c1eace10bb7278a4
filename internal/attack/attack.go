// Package attack implements the paper's threat model (§III) as injectable
// scenarios: logical attacks on the external bus/memory (replay,
// relocation, spoofing, tampering) and hijacked-IP attacks from inside the
// FPGA (zone escapes, format abuse, DMA hijacking, DoS floods).
//
// Every scenario separates its build / inject / verdict phases (the
// Scenario interface in scenario.go), so the same attack runs both
// one-shot on a quiet platform (New + Run) and inside internal/campaign's
// sweeps, where it fires at a chosen cycle under concurrent benign load
// and a flood's bystander cost is measured against an attack-free twin.
// Either way the report says whether the platform detected it (an alert
// was raised, and by which firewall), whether the effect was contained
// (the attacker's goal failed), and how quickly. Running the same scenario
// against soc.Unprotected shows the attack actually works when nothing
// defends — keeping the detection results honest.
package attack

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/soc"
)

// Outcome reports one quiet one-shot scenario run.
type Outcome struct {
	// Scenario and Protection identify the run.
	Scenario   string
	Protection soc.Protection
	// Detected: at least one firewall alert attributable to the attack.
	// DetectedBy names the enforcement point that raised the first one.
	Detected   bool
	DetectedBy string
	// Violation is the first attributed alert's class.
	Violation core.Violation
	// DetectLatency is the cycle distance from injection to first alert
	// (meaningful when Detected).
	DetectLatency uint64
	// Contained: the attacker's goal failed (data suppressed, write
	// discarded, victim unaffected).
	Contained bool
	// Notes carries scenario-specific measurements.
	Notes string
}

func (o Outcome) String() string {
	return fmt.Sprintf("%-18s %-22s detected=%-5v contained=%-5v latency=%d %s",
		o.Scenario, o.Protection, o.Detected, o.Contained, o.DetectLatency, o.Notes)
}

// probe issues one bus transaction from a dedicated unguarded master and
// runs until completion. External-memory scenarios use it as the victim
// access; it reaches the LCF like any internal master would.
func probe(s *soc.System, m *bus.MasterPort, op bus.Op, addr uint32, data uint32) *bus.Transaction {
	tx := &bus.Transaction{Op: op, Addr: addr, Size: 4, Burst: 1}
	if op == bus.Write {
		tx.Data = []uint32{data}
	}
	done := false
	m.Submit(tx, func(*bus.Transaction) { done = true })
	s.Eng.RunUntil(func() bool { return done }, 1_000_000)
	return tx
}
