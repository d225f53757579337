package sim

import (
	"testing"

	"qosrm/internal/perfmodel"
	"qosrm/internal/rm"
)

// TestCurveCacheEquivalence is the RM-path overhaul's correctness
// contract: with the database's curve table and workspace reduction, every
// co-simulation outcome must be identical to the seed static loop, which
// recomputes Localize at every interval boundary (runStaticReference) —
// across all RM kinds, models, the perfect oracle, and a relaxed alpha.
func TestCurveCacheEquivalence(t *testing.T) {
	d := sharedDB(t)
	w := apps(t, "mcf", "xalancbmk", "libquantum", "omnetpp")
	configs := []Config{
		{RM: rm.RM1, Model: perfmodel.Model1},
		{RM: rm.RM2, Model: perfmodel.Model2},
		{RM: rm.RM3, Model: perfmodel.Model3},
		{RM: rm.RM3, Model: perfmodel.Model3, Alpha: 1.3},
		{RM: rm.RM3, Perfect: true},
		{RM: rm.RM2, Model: perfmodel.Model3, DisableOverheads: true},
		{RM: rm.RM3, Model: perfmodel.Model3, Policy: rm.PolicyGreedy},
	}
	for _, cfg := range configs {
		cached, err := Run(d, w, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.RM, cfg.Model, err)
		}
		ref, err := runStaticReference(d, w, cfg)
		if err != nil {
			t.Fatalf("%v/%v (reference): %v", cfg.RM, cfg.Model, err)
		}
		if cached.EnergyJ != ref.EnergyJ || cached.TimeNs != ref.TimeNs ||
			cached.RMCalled != ref.RMCalled || cached.UncoreJ != ref.UncoreJ {
			t.Fatalf("%v/%v perfect=%v: cached run diverges: %+v vs %+v",
				cfg.RM, cfg.Model, cfg.Perfect, cached, ref)
		}
		for i := range cached.Apps {
			if cached.Apps[i] != ref.Apps[i] {
				t.Fatalf("%v/%v app %d diverges:\ncached %+v\nplain  %+v",
					cfg.RM, cfg.Model, i, cached.Apps[i], ref.Apps[i])
			}
		}
	}
}
