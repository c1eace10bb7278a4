package attack_test

import (
	"reflect"
	"testing"

	"repro/internal/soc"
)

// TestCampaignDeterministic: every one-shot detection scenario yields an
// identical Outcome across runs — the property every reported number in
// EXPERIMENTS.md rests on.
func TestCampaignDeterministic(t *testing.T) {
	for _, name := range detectionNames {
		a, b := run(t, name, soc.Distributed), run(t, name, soc.Distributed)
		if a != b {
			t.Fatalf("scenario %s diverged:\n  %+v\n  %+v", name, a, b)
		}
	}
}

// TestDoSDeterministic: the flood's twin-run record is identical across
// runs, slowdown and bus-share notes included.
func TestDoSDeterministic(t *testing.T) {
	a, b := dos(t, soc.Unprotected), dos(t, soc.Unprotected)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("DoS non-deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestOutcomesCarryProtectionLabel guards the reporting path.
func TestOutcomesCarryProtectionLabel(t *testing.T) {
	for _, name := range detectionNames {
		if o := run(t, name, soc.Centralized); o.Protection != soc.Centralized {
			t.Fatalf("%s labeled %v", o.Scenario, o.Protection)
		}
	}
}
