// Attack containment: the paper's §III-C requirement that an attack "must
// not reach the communication architecture but be stopped in the interface
// associated with the infected IP".
//
// The demo hijacks the last core with a store flood (denial of service)
// while the other cores stream a legitimate workload, on the unprotected,
// centralized and distributed platforms — each measured against an
// attack-free twin — and then runs the full threat model one-shot.
//
//	go run ./examples/attack_containment
package main

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/soc"
	"repro/internal/trace"
)

// detectionScenarios is the threat model minus the floods, whose goal
// (bystander slowdown) only a twin run can judge.
var detectionScenarios = []string{
	"tamper", "replay", "relocation", "spoof", "zone-escape", "dma-hijack", "format-abuse",
}

// oneShot runs every detection scenario on a quiet platform.
func oneShot(p soc.Protection) []attack.Outcome {
	var outs []attack.Outcome
	for _, name := range detectionScenarios {
		sc, err := attack.New(name)
		if err != nil {
			panic(err)
		}
		outs = append(outs, attack.Run(sc, p))
	}
	return outs
}

func main() {
	fmt.Println("DoS flood: hijacked core 2 hammers a forbidden address while cores 0-1 work")
	fmt.Println()
	tb := trace.NewTable("", "protection", "bystander slowdown", "detected", "contained", "verdict")
	for _, p := range []soc.Protection{soc.Unprotected, soc.Centralized, soc.Distributed} {
		r := campaign.RunOne(campaign.Config{Scenario: "dos-flood", Protection: p})
		if r.Err != "" {
			panic(r.Err)
		}
		tb.AddRow(p.String(), fmt.Sprintf("%.2fx", r.Slowdown),
			fmt.Sprintf("%v", r.Detected), fmt.Sprintf("%v", r.Contained), r.Goal)
	}
	fmt.Print(tb.String())

	fmt.Println()
	fmt.Println("Full threat model (distributed firewalls):")
	for _, o := range oneShot(soc.Distributed) {
		status := "STOPPED"
		if !o.Detected || !o.Contained {
			status = "MISSED"
		}
		fmt.Printf("  %-14s %-9s violation=%-9s by=%-10s reaction=%d cycles  (%s)\n",
			o.Scenario, status, o.Violation, o.DetectedBy, o.DetectLatency, o.Notes)
	}

	fmt.Println()
	fmt.Println("Same campaign without protection (attacks succeed — threat model is real):")
	for _, o := range oneShot(soc.Unprotected) {
		status := "SUCCEEDED"
		if o.Contained {
			status = "failed"
		}
		fmt.Printf("  %-14s attack %-10s (%s)\n", o.Scenario, status, o.Notes)
	}
}
