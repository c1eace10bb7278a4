package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/spec"
)

// Workload names.
const (
	commsBRAM       = "comms-bram"
	memoriesOffchip = "memories-offchip"
	fleetJournal    = "fleet-journal"
)

// workloadNames lists the workloads in the order the docs give them.
var workloadNames = []string{commsBRAM, memoriesOffchip, fleetJournal}

// injectRange bounds the seed-picked inject_delay of a campaign spec.
// Every background of the workload outlasts the upper bound, so no record
// reads "background finished before injection": at 256 accesses the
// shortest internal background (stream, 3 cores) runs past cycle 2000 and
// the external ones past 8000; at 64 accesses stream runs past 400.
type injectRange struct{ lo, hi uint64 }

var (
	inject256 = injectRange{100, 1000}
	inject64  = injectRange{60, 300}
)

// specsFor builds a workload's spec documents from the seed. The seed
// permutes every axis list and picks inject_delay; the program under test
// receives only the resulting spec JSON. comms-bram and memories-offchip
// have one spec; fleet-journal alternates between two.
func specsFor(workload string, seed uint64) ([]*spec.Spec, error) {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	switch workload {
	case commsBRAM:
		return []*spec.Spec{spec.NewCampaign(spec.CampaignSpec{
			Scenarios:   perm(r, []string{"zone-escape", "dma-hijack", "format-abuse", "dos-flood", "burst-flood"}),
			Protections: perm(r, spec.ProtectionNames()),
			Cores:       perm(r, []int{3, 4, 8}),
			Backgrounds: perm(r, []string{"stream", "mix", "memcopy"}),
			Accesses:    256,
			InjectDelay: inject256.pick(r),
			Recovery:    &spec.RecoverySpec{Enabled: true, ClearDelay: 8000},
		})}, nil
	case memoriesOffchip:
		return []*spec.Spec{spec.NewCampaign(spec.CampaignSpec{
			Scenarios:   perm(r, []string{"tamper", "replay", "relocation", "spoof"}),
			Protections: perm(r, spec.ProtectionNames()),
			Cores:       perm(r, []int{3, 4, 8}),
			Backgrounds: perm(r, []string{"secure-stream", "secure-scrub", "cipher-mix"}),
			Accesses:    256,
			InjectDelay: inject256.pick(r),
		})}, nil
	case fleetJournal:
		return []*spec.Spec{
			spec.NewCampaign(spec.CampaignSpec{
				Scenarios:   perm(r, []string{"zone-escape", "dma-hijack", "format-abuse", "dos-flood", "burst-flood"}),
				Protections: perm(r, spec.ProtectionNames()),
				Cores:       perm(r, []int{3, 4}),
				Backgrounds: []string{"stream"},
				Accesses:    64,
				InjectDelay: inject64.pick(r),
			}),
			spec.NewSweep(spec.SweepSpec{
				Protections: perm(r, spec.ProtectionNames()),
				Workloads:   perm(r, []string{"mix", "stream"}),
				Targets:     perm(r, []string{"internal", "cipher"}),
				Cores:       perm(r, []int{1, 2}),
				Accesses:    64,
			}),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

func (ir injectRange) pick(r *rand.Rand) uint64 {
	return ir.lo + r.Uint64N(ir.hi-ir.lo+1)
}

// perm returns a seeded permutation of xs.
func perm[T any](r *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
