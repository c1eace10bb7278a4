package attack_test

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/soc"
)

// run executes the named scenario one-shot on a quiet platform.
func run(t *testing.T, name string, p soc.Protection) attack.Outcome {
	t.Helper()
	sc, err := attack.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return attack.Run(sc, p)
}

// detectionNames is every one-shot detection scenario: the external-memory
// attacks, then the hijacked-IP ones (the floods are judged on bystander
// cost, which only the campaign's twin run measures).
var (
	externalNames  = []string{"tamper", "replay", "relocation", "spoof"}
	hijackNames    = []string{"zone-escape", "dma-hijack", "format-abuse"}
	detectionNames = append(append([]string(nil), externalNames...), hijackNames...)
)

// TestExternalAttacksSucceedUnprotected keeps the threat model honest: on
// the generic platform every external-memory attack reaches its goal and
// nothing notices.
func TestExternalAttacksSucceedUnprotected(t *testing.T) {
	for _, name := range externalNames {
		o := run(t, name, soc.Unprotected)
		if o.Detected {
			t.Errorf("%s: detected on unprotected platform?!", o.Scenario)
		}
		if o.Contained {
			t.Errorf("%s: attack failed even without protection — scenario broken (%s)", o.Scenario, o.Notes)
		}
	}
}

// TestExternalAttacksDetectedAndContainedDistributed is the paper's core
// security claim for the LCF.
func TestExternalAttacksDetectedAndContainedDistributed(t *testing.T) {
	for _, name := range externalNames {
		o := run(t, name, soc.Distributed)
		if !o.Detected {
			t.Errorf("%s: not detected (%s)", o.Scenario, o.Notes)
		}
		if !o.Contained {
			t.Errorf("%s: not contained (%s)", o.Scenario, o.Notes)
		}
	}
}

func TestReplayClassifiedAsReplay(t *testing.T) {
	o := run(t, "replay", soc.Distributed)
	if o.Violation != core.VReplay {
		t.Errorf("replay classified as %v", o.Violation)
	}
}

func TestTamperClassifiedAsIntegrity(t *testing.T) {
	o := run(t, "tamper", soc.Distributed)
	if o.Violation != core.VIntegrity && o.Violation != core.VReplay {
		t.Errorf("tamper classified as %v", o.Violation)
	}
}

// TestCentralizedMissesExternalAttacks: the SECA-style baseline checks bus
// rules only — it has no external-memory protection, so all four attacks
// succeed silently. This is the architectural gap the LCF fills.
func TestCentralizedMissesExternalAttacks(t *testing.T) {
	for _, name := range externalNames {
		o := run(t, name, soc.Centralized)
		if o.Detected || o.Contained {
			t.Errorf("%s: centralized baseline unexpectedly handled it (%s)", o.Scenario, o.Notes)
		}
	}
}

func TestHijackAttacksContainedDistributed(t *testing.T) {
	for _, name := range hijackNames {
		o := run(t, name, soc.Distributed)
		if !o.Detected || !o.Contained {
			t.Errorf("%s: detected=%v contained=%v (%s)", o.Scenario, o.Detected, o.Contained, o.Notes)
		}
	}
}

func TestHijackAttacksSucceedUnprotected(t *testing.T) {
	for _, name := range []string{"zone-escape", "dma-hijack"} {
		o := run(t, name, soc.Unprotected)
		if o.Detected {
			t.Errorf("%s: phantom detection on unprotected platform", o.Scenario)
		}
		if o.Contained {
			t.Errorf("%s: hijack failed without protection — scenario broken (%s)", o.Scenario, o.Notes)
		}
	}
}

func TestHijackAttacksDetectedCentralized(t *testing.T) {
	// Bus-rule attacks ARE the centralized baseline's home turf: it must
	// catch them too (at higher cost — see the benches).
	for _, name := range []string{"zone-escape", "dma-hijack"} {
		o := run(t, name, soc.Centralized)
		if !o.Detected || !o.Contained {
			t.Errorf("%s: centralized missed a bus-rule attack: detected=%v contained=%v (%s)",
				o.Scenario, o.Detected, o.Contained, o.Notes)
		}
	}
}

func TestDetectionLatencyIsBounded(t *testing.T) {
	// §III-C: "the system must react as fast as possible". A hijacked-IP
	// violation must be flagged within the SB check window plus a couple
	// of pipeline cycles, not after the transfer completed.
	o := run(t, "zone-escape", soc.Distributed)
	if !o.Detected {
		t.Fatal("not detected")
	}
	if o.DetectLatency > 200 {
		t.Errorf("detection took %d cycles", o.DetectLatency)
	}
}

// dos runs the DoS flood as a campaign twin run: the background stream on
// the bystander cores, the flood on the last core, the slowdown measured
// against the attack-free twin.
func dos(t *testing.T, p soc.Protection) campaign.Record {
	t.Helper()
	r := campaign.RunOne(campaign.Config{Scenario: "dos-flood", Protection: p})
	if r.Err != "" {
		t.Fatalf("%v: %s", p, r.Err)
	}
	if !r.Completed || r.TwinCycles == 0 {
		t.Fatalf("%v: background window not measured: %+v", p, r)
	}
	return r
}

// TestDoSContainmentDistributed: the flood is detected and dies in the
// attacker's own interface (the bus-share bound is pinned in-package by
// TestFloodBusShareBounds).
func TestDoSContainmentDistributed(t *testing.T) {
	d := dos(t, soc.Distributed)
	if !d.Detected {
		t.Error("flood not detected")
	}
	if !d.Contained {
		t.Errorf("bystanders slowed %.2fx by a flood the firewall should absorb (%s)", d.Slowdown, d.Goal)
	}
}

func TestDoSHurtsUnprotected(t *testing.T) {
	d := dos(t, soc.Unprotected)
	if d.Slowdown < 1.5 {
		t.Errorf("flood barely hurt the unprotected bystanders (%.2fx) — scenario broken", d.Slowdown)
	}
	if d.Contained {
		t.Errorf("unprotected flood contained?! (%s)", d.Goal)
	}
}

func TestDoSHurtsCentralizedMore(t *testing.T) {
	// The SEM serializes every check, so a flood congests *everyone*.
	cent, dist := dos(t, soc.Centralized), dos(t, soc.Distributed)
	if cent.Slowdown <= dist.Slowdown {
		t.Errorf("centralized slowdown %.2fx not worse than distributed %.2fx",
			cent.Slowdown, dist.Slowdown)
	}
}

// TestAllRunsEveryScenario: every registered scenario builds, runs
// one-shot and reports under its own name.
func TestAllRunsEveryScenario(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range attack.Names() {
		o := run(t, name, soc.Distributed)
		if o.Scenario != name {
			t.Errorf("scenario %s reported as %q", name, o.Scenario)
		}
		if seen[o.Scenario] {
			t.Errorf("duplicate scenario %s", o.Scenario)
		}
		seen[o.Scenario] = true
		if o.String() == "" {
			t.Error("empty scenario metadata")
		}
	}
	if len(seen) != len(attack.Names()) {
		t.Fatalf("ran %d scenarios, want %d", len(seen), len(attack.Names()))
	}
	if _, err := attack.New("no-such-attack"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestCipherOnlyZoneVulnerableByDesign pins the paper's §III-B analysis:
// a ciphered-but-unauthenticated zone resists disclosure but not
// corruption-DoS — on every architecture, including the distributed one.
func TestCipherOnlyZoneVulnerableByDesign(t *testing.T) {
	for _, p := range []soc.Protection{soc.Unprotected, soc.Distributed} {
		o := run(t, "cipher-only-tamper", p)
		if o.Detected {
			t.Errorf("%v: cipher-only tamper detected?! (%s)", p, o.Notes)
		}
		if o.Contained {
			t.Errorf("%v: cipher-only tamper contained?! (%s)", p, o.Notes)
		}
	}
	// Confidentiality still holds on the distributed platform: the
	// stored bytes are ciphertext.
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	s.HaltIdleCores()
	if got := s.DDR.Store().ReadWord(soc.CipherBase); got == 0 {
		// Sealed zone: even all-zero plaintext encrypts to nonzero.
		t.Error("cipher zone stored plaintext zeros")
	}
}
