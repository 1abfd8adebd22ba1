package sim

import (
	"testing"

	"bbmig/internal/workload"
)

// TestSwarmModelBasics pins the parallel-flow wire model: a swarm run moves
// the template share off the source channel (fewer source bytes than
// single-source dedup at the same dedup share), accounts the peer-produced
// blocks, and still ends no later than the single-source run.
func TestSwarmModelBasics(t *testing.T) {
	base := Defaults(workload.Web)
	base.DwellAfter = 0
	base.Dedup = true
	base.DedupShare = dedupZeroShare
	single := RunTPM(base)

	p := base
	p.SwarmShare = dedupTemplateShare
	p.SwarmBytesPerSec = 3 * base.NetBytesPerSec
	sw := RunTPM(p)

	if sw.Report.SwarmBlocks == 0 {
		t.Fatal("swarm run reports zero peer-produced blocks")
	}
	if single.Report.SwarmBlocks != 0 {
		t.Fatalf("single-source run reports %d swarm blocks", single.Report.SwarmBlocks)
	}
	if sw.Report.MigratedBytes >= single.Report.MigratedBytes {
		t.Fatalf("swarm source channel moved %d bytes, single-source %d",
			sw.Report.MigratedBytes, single.Report.MigratedBytes)
	}
	if (sw.MigEnd - sw.MigStart) >= (single.MigEnd - single.MigStart) {
		t.Fatal("swarm run not faster than single-source dedup on the same link")
	}
	// Share clamping: dedup share + swarm share never exceeds the whole disk.
	p.DedupShare = 0.8
	p.SwarmShare = 0.8
	if r := RunTPM(p); r.Report.MigratedBytes > sw.Report.MigratedBytes {
		t.Fatal("clamped swarm share produced more source bytes than the honest split")
	}
}

// TestSwarmSweepAcceptance pins the tentpole's headline number: evacuating
// the clone fleet toward cold destinations with three warm swarm peers per
// migration must cut the makespan at least 2x versus PR 5's single-source
// dedup, which can only elide what the cold destination already holds.
func TestSwarmSweepAcceptance(t *testing.T) {
	rows, tab := SwarmSweep(1)
	if tab.String() == "" {
		t.Fatal("empty table")
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	literal, single, swarm := rows[0], rows[1], rows[2]
	if single.Speedup != 1 {
		t.Fatalf("single-source speedup %.2f, want exactly 1x (it is the baseline)", single.Speedup)
	}
	if literal.Speedup >= 1 {
		t.Fatalf("literal speedup %.2fx, should be slower than single-source dedup", literal.Speedup)
	}
	if swarm.Speedup < 2 {
		t.Fatalf("swarm speedup %.2fx over single-source dedup, acceptance bar is 2x", swarm.Speedup)
	}
	if swarm.SwarmBlocks == 0 {
		t.Fatal("swarm arm reports no peer-produced blocks")
	}
	if single.SwarmBlocks != 0 || literal.SwarmBlocks != 0 {
		t.Fatal("non-swarm arms report peer-produced blocks")
	}
	if swarm.FleetWireGB >= single.FleetWireGB {
		t.Fatalf("swarm source wire %.1f GB not below single-source %.1f GB",
			swarm.FleetWireGB, single.FleetWireGB)
	}
}
