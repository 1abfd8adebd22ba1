package sim

import (
	"testing"
)

// TestClusterSweep pins the acceptance properties of the evacuation model:
// makespan improves with scheduler concurrency until the uplink budget
// saturates, per-VM downtime never exceeds twice the solo figure, and the
// injected-outage arm completes via resume at a re-send cost that is noise
// against the evacuation's volume.
func TestClusterSweep(t *testing.T) {
	rows, tab := ClusterSweep(1)
	if tab == nil || len(tab.Rows) != len(rows) {
		t.Fatalf("table rows %d != result rows %d", len(tab.Rows), len(rows))
	}
	byLabel := map[string]ClusterSweepRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	solo, c2, c4, c8 := byLabel["1"], byLabel["2"], byLabel["4"], byLabel["8"]

	// Makespan strictly improves while the budget has headroom.
	if !(c2.Makespan < solo.Makespan) || !(c4.Makespan < c2.Makespan) {
		t.Fatalf("makespan did not improve with concurrency: c1=%v c2=%v c4=%v",
			solo.Makespan, c2.Makespan, c4.Makespan)
	}
	// Concurrency 4 saturates the 4-link uplink: at least ~3x over serial.
	if c4.Makespan*3 > solo.Makespan {
		t.Fatalf("c=4 makespan %v vs serial %v: expected ~4x improvement", c4.Makespan, solo.Makespan)
	}
	// Per-VM downtime stays within 2x of a solo migration at every
	// concurrency, including the oversubscribed one.
	limit := 2 * solo.MaxDowntime
	for _, r := range rows {
		if r.MaxDowntime > limit {
			t.Fatalf("row %q max downtime %v exceeds 2x solo (%v)", r.Label, r.MaxDowntime, limit)
		}
	}
	// Oversubscription must show up as a downtime cost, or the 2x bound
	// above is testing nothing.
	if c8.MaxDowntime <= solo.MaxDowntime {
		t.Fatalf("c=8 downtime %v not above solo %v; the contention model is broken", c8.MaxDowntime, solo.MaxDowntime)
	}

	// The fault arm: the drain survives a 10 s outage via resume, re-sending
	// only the in-flight window.
	fault, ok := byLabel["4 + 10 s outage"]
	if !ok {
		t.Fatal("fault arm missing")
	}
	if fault.Retries < 1 {
		t.Fatalf("fault arm recorded %d retries", fault.Retries)
	}
	if fault.ResentMB <= 0 || fault.ResentMB > 10 {
		t.Fatalf("fault arm re-sent %.1f MB; resume should cost well under 10 MB", fault.ResentMB)
	}
	// The outage may stall one wave by ~its duration but must not cost a
	// restart-scale makespan regression vs the clean c=4 run.
	if fault.Makespan > c4.Makespan+c4.Makespan/4 {
		t.Fatalf("faulted makespan %v vs clean %v: resume should bound the penalty", fault.Makespan, c4.Makespan)
	}
}
