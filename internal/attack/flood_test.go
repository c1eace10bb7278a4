package attack

import (
	"testing"

	"repro/internal/soc"
	"repro/internal/workload"
)

// TestFloodBusShareBounds pins where the DoS flood dies: with a victim
// streaming 512 words of shared BRAM on core 0 and the flood injected on
// the last core, distributed firewalls keep the flood off the shared bus
// (at most 1% of completed transactions) while on the unprotected
// platform it takes at least 30% of them.
func TestFloodBusShareBounds(t *testing.T) {
	share := func(p soc.Protection) float64 {
		s := soc.MustNew(soc.Config{Protection: p})
		s.HaltIdleCores(0)
		s.MustLoad(0, workload.Stream(soc.BRAMBase, 512, 4, 0))
		sc := &dosScenario{}
		if err := sc.Setup(s); err != nil {
			t.Fatal(err)
		}
		if err := sc.Inject(s); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.RunUntilCores(50_000_000, 0); !ok {
			t.Fatalf("%v: victim did not finish", p)
		}
		return floodBusShare(s, len(s.Cores)-1)
	}
	if d := share(soc.Distributed); d > 0.01 {
		t.Errorf("distributed: flood reached the bus: %.1f%% of transactions", d*100)
	}
	if u := share(soc.Unprotected); u < 0.3 {
		t.Errorf("unprotected: flood bus share only %.1f%%", u*100)
	}
}
