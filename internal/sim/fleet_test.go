package sim

import (
	"reflect"
	"testing"
	"time"
)

// fleetRowsByArm indexes sweep rows by "shape/policy".
func fleetRowsByArm(t *testing.T, rows []FleetRow) map[string]FleetRow {
	t.Helper()
	m := make(map[string]FleetRow, len(rows))
	for _, r := range rows {
		m[r.Shape+"/"+r.Policy] = r
	}
	if len(m) != 6 {
		t.Fatalf("sweep produced %d distinct arms, want 6: %+v", len(m), rows)
	}
	return m
}

// TestFleetSweepDeterministic pins the regression contract: the same seed
// reproduces every row bit-for-bit — makespans, downtimes, retransmission,
// speedups — and a different seed actually changes the fleet.
func TestFleetSweepDeterministic(t *testing.T) {
	rows1, _ := FleetSweep(7, 40, 2000)
	rows2, _ := FleetSweep(7, 40, 2000)
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatalf("same seed, different rows:\n%+v\n%+v", rows1, rows2)
	}
	rows3, _ := FleetSweep(8, 40, 2000)
	if reflect.DeepEqual(rows1, rows3) {
		t.Fatalf("different seeds produced identical rows")
	}
}

// TestFleetPredictiveAcceptance pins what the cluster's trough rule buys
// at the CI shape: on the diurnal shape it beats reactive on drain makespan
// while cutting downtime and interference by at least a quarter, the
// constant control arm ties exactly, and on unforecastable bursts it does
// no harm.
func TestFleetPredictiveAcceptance(t *testing.T) {
	rows, _ := FleetSweep(1, 40, 2000)
	arm := fleetRowsByArm(t, rows)

	re, pr := arm["diurnal/reactive"], arm["diurnal/predictive"]
	if pr.Speedup < 1.1 {
		t.Errorf("diurnal predictive speedup = %.2f, want >= 1.1 (reactive %v vs predictive %v)",
			pr.Speedup, re.Makespan, pr.Makespan)
	}
	if pr.MeanDowntime*4 > re.MeanDowntime*3 {
		t.Errorf("predictive mean downtime %v not under 3/4 of reactive %v",
			pr.MeanDowntime, re.MeanDowntime)
	}
	if pr.HighStarts*4 > re.HighStarts*3 {
		t.Errorf("predictive high starts %d not under 3/4 of reactive %d",
			pr.HighStarts, re.HighStarts)
	}
	if pr.RetransBlocks*4 > re.RetransBlocks*3 {
		t.Errorf("predictive retransmission %d blocks not under 3/4 of reactive %d",
			pr.RetransBlocks, re.RetransBlocks)
	}

	// The constant shape has no troughs: the policies must tie (the sweep
	// would be rigged if prediction "won" where there is nothing to predict).
	if s := arm["constant/predictive"].Speedup; s != 1 {
		t.Errorf("constant-shape speedup = %v, want exactly 1", s)
	}
	// Bursts are unforecastable at heartbeat grain: the rule must not lose
	// to doing nothing.
	if s := arm["bursty/predictive"].Speedup; s < 1 {
		t.Errorf("bursty-shape speedup = %.3f, want >= 1", s)
	}

	// Every arm migrated the full drained population.
	for name, r := range arm {
		if want := r.Drained * (r.Domains / r.Hosts); r.Migrations != want {
			t.Errorf("%s: %d migrations, want %d", name, r.Migrations, want)
		}
	}
}

// TestFleetSweepAtScale is the issue's scale acceptance: the full
// 10 000-domain, 200-host sweep — six arms, three of them feeding ten
// thousand forecast models from streaming heartbeat counters — completes
// well inside a 60 s wall budget, and the headline result holds at scale.
func TestFleetSweepAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-domain sweep skipped in -short mode")
	}
	start := time.Now()
	rows, tbl := FleetSweep(1, 200, 10000)
	wall := time.Since(start)
	if wall > 60*time.Second {
		t.Fatalf("10k-domain sweep took %v, budget 60s", wall)
	}
	arm := fleetRowsByArm(t, rows)
	if got := arm["diurnal/reactive"].Migrations; got != 2000 {
		t.Fatalf("drained %d domains, want 2000 (40 hosts x 50 domains)", got)
	}
	if s := arm["diurnal/predictive"].Speedup; s < 1.2 {
		t.Fatalf("diurnal predictive speedup at scale = %.2f, want >= 1.2\n%s", s, tbl)
	}
}
