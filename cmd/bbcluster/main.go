// Command bbcluster demonstrates the cluster orchestrator on an in-process
// fleet: it provisions N host daemons with M domains stacked on the first
// one, registers them with internal/cluster, and runs one fleet verb —
// migrations travel over real loopback TCP through the same scheduler,
// placement engine, and bandwidth budget a production wiring would use.
//
//	bbcluster [flags] status            fleet table: loads, caps, budget share
//	bbcluster [flags] drain <host>      evacuate every domain off <host>
//	bbcluster [flags] rebalance         even out domain counts fleet-wide
//	bbcluster [flags] autopilot         run the continuous rebalance loop until the fleet is even
//
// Useful flags: -hosts/-domains size the fleet, -budget-mb sets the global
// pre-copy budget the in-flight migrations share, -max-total/-per-host set
// the scheduler's concurrency caps, -presync runs the incremental pre-sync
// leg before each drain cutover, -retries sets each migration's resume
// budget, -dedup turns on content-addressed transfer on every migration
// (each machine answers adverts from its shared fingerprint index), -swarm
// additionally fans each dedup'd migration's want-set across peer machines
// nominated by content overlap (up to -swarm-peers sidecar serve sessions,
// paced from the shared budget), and -live runs the synthetic guest
// workloads during the verb. -forecast feeds heartbeat write counters into
// per-domain dirty-rate models and parks normal-priority migrations in
// predicted write troughs; -ap-interval, -ap-moves, and -ap-timeout shape
// the autopilot verb's control loop.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bbmig/internal/blockdev"
	"bbmig/internal/cluster"
	"bbmig/internal/core"
	"bbmig/internal/hostd"
	"bbmig/internal/metrics"
	"bbmig/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bbcluster: %v\n", err)
		os.Exit(1)
	}
}

// run builds the fleet and executes one verb; split from main for tests.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bbcluster", flag.ContinueOnError)
	hosts := fs.Int("hosts", 3, "number of host daemons in the fleet")
	domains := fs.Int("domains", 4, "number of domains, all created on host1")
	blocks := fs.Int("blocks", 2048, "VBD blocks per domain (4 KiB each)")
	pages := fs.Int("pages", 64, "memory pages per domain")
	budgetMB := fs.Float64("budget-mb", 0, "global pre-copy budget in MB/s shared by concurrent migrations (0 = unlimited)")
	perHost := fs.Int("per-host", cluster.DefaultMaxPerHost, "per-host concurrent migration cap")
	maxTotal := fs.Int("max-total", cluster.DefaultMaxTotal, "fleet-wide concurrent migration cap")
	presync := fs.Bool("presync", false, "pre-sync each drain move so the cutover ships only the recent write set")
	dedupFlag := fs.Bool("dedup", false, "content-addressed dedup on every migration and pre-sync")
	swarmFlag := fs.Bool("swarm", false, "fan each dedup'd migration's want-set across content-overlapping peer machines (implies nothing without -dedup)")
	swarmPeers := fs.Int("swarm-peers", cluster.DefaultSwarmPeers, "max sidecar swarm-serve peers nominated per migration")
	retries := fs.Int("retries", cluster.DefaultDrainRetries, "per-migration reconnect/resume budget")
	live := fs.Bool("live", false, "run the synthetic guest workloads during the verb")
	seed := fs.Int64("seed", 1, "workload seed")
	forecast := fs.Bool("forecast", false, "feed heartbeat write counters into per-domain dirty-rate models and defer normal-priority migrations into predicted write troughs")
	apInterval := fs.Duration("ap-interval", 50*time.Millisecond, "autopilot control-loop cadence")
	apMoves := fs.Int("ap-moves", cluster.DefaultAutopilotMoves, "autopilot in-flight move cap")
	apTimeout := fs.Duration("ap-timeout", 30*time.Second, "give up if the autopilot has not evened the fleet by then")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: bbcluster [flags] status | drain <host> | rebalance | autopilot")
	}
	verb := fs.Arg(0)

	c := cluster.New(cluster.Options{
		GlobalBandwidth: int64(*budgetMB * 1e6),
		MaxPerHost:      *perHost,
		MaxTotal:        *maxTotal,
		Swarm:           *swarmFlag,
		SwarmPeers:      *swarmPeers,
		Forecast:        *forecast,
		BaseConfig:      core.Config{MaxExtentBlocks: 64, MaxRetries: *retries, Dedup: *dedupFlag},
	})
	var machines []*hostd.Machine
	for i := 1; i <= *hosts; i++ {
		m := hostd.NewMachine(fmt.Sprintf("host%d", i))
		if err := c.Register(m, cluster.MemberOptions{Capacity: *domains + 2}); err != nil {
			return err
		}
		machines = append(machines, m)
	}
	for i := 1; i <= *domains; i++ {
		d, err := machines[0].CreateDomain(fmt.Sprintf("vm%02d", i), *blocks, *pages, workload.Web, *seed+int64(i), *live)
		if err != nil {
			return err
		}
		if !*live {
			// Without a live workload, prefill a quarter of the disk so the
			// migrations still move real bytes.
			if err := prefill(d, *blocks/4, uint32(i)); err != nil {
				return err
			}
		}
		if _, err := c.Heartbeat(machines[0].Name); err != nil {
			return err
		}
	}

	printStatus(out, c)
	start := time.Now()
	switch verb {
	case "status":
		return nil
	case "drain":
		if fs.NArg() < 2 {
			return fmt.Errorf("usage: bbcluster drain <host>")
		}
		res, err := c.Drain(fs.Arg(1), cluster.DrainOptions{PreSync: *presync, Retries: *retries})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\ndrained %s in %v (%d moves):\n", res.Host, res.Makespan.Round(time.Millisecond), len(res.Moves))
		for _, mv := range res.Moves {
			printMove(out, mv)
		}
		if failed := res.Failed(); len(failed) != 0 {
			return fmt.Errorf("%d moves failed", len(failed))
		}
	case "rebalance":
		res, err := c.Rebalance()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nrebalanced in %v (%d moves):\n", time.Since(start).Round(time.Millisecond), len(res.Moves))
		for _, mv := range res.Moves {
			printMove(out, mv)
		}
	case "autopilot":
		ap := c.StartAutopilot(cluster.AutopilotOptions{Interval: *apInterval, MaxMovesPerCycle: *apMoves})
		deadline := time.Now().Add(*apTimeout)
		for {
			if st := ap.Stats(); st.Cycles > 0 && st.InFlight == 0 && fleetSpread(c) <= 1 {
				break
			}
			if time.Now().After(deadline) {
				ap.Stop()
				return fmt.Errorf("autopilot did not even the fleet within %v: %+v", *apTimeout, ap.Stats())
			}
			time.Sleep(*apInterval)
		}
		ap.Stop()
		st := ap.Stats()
		fmt.Fprintf(out, "\nautopilot evened the fleet in %v: %d cycles, %d/%d planned moves completed, %d failed\n",
			time.Since(start).Round(time.Millisecond), st.Cycles, st.Completed, st.Submitted, st.Failed)
	default:
		return fmt.Errorf("unknown verb %q (want status, drain, rebalance, or autopilot)", verb)
	}
	for _, m := range machines {
		stopWorkloads(m)
	}
	fmt.Fprintln(out)
	printStatus(out, c)
	return nil
}

// prefill writes n patterned blocks into a workload-less domain.
func prefill(d *hostd.Domain, n int, gen uint32) error {
	buf := make([]byte, d.Disk().BlockSize())
	for b := 0; b < n; b++ {
		workload.FillBlock(buf, b, gen)
		req := blockdev.Request{Op: blockdev.Write, Block: b, Domain: d.VM().DomainID, Data: buf}
		if err := d.Submit(req); err != nil {
			return err
		}
	}
	return nil
}

// stopWorkloads quiesces every domain the machine still hosts.
func stopWorkloads(m *hostd.Machine) {
	for _, name := range m.Domains() {
		if d, ok := m.Domain(name); ok {
			d.StopWorkload()
		}
	}
}

// printMove renders one migration's outcome line.
func printMove(out io.Writer, mv cluster.Move) {
	if mv.Err != nil {
		fmt.Fprintf(out, "  %-6s -> %-8s FAILED after %d attempt(s): %v\n", mv.Domain, mv.Target, mv.Attempts, mv.Err)
		return
	}
	line := fmt.Sprintf("  %-6s -> %-8s", mv.Domain, mv.Target)
	if mv.Sync != nil {
		line += fmt.Sprintf(" presync %4d blk,", mv.Sync.Blocks)
	}
	if rep := mv.Report; rep != nil {
		line += fmt.Sprintf(" cutover iter1 %4d blk, downtime %3d ms, %6.1f MB total",
			rep.DiskIterations[0].Units, rep.Downtime.Milliseconds(), rep.MigratedMB())
		if rep.Retries > 0 {
			line += fmt.Sprintf(", %d resume(s)", rep.Retries)
		}
	}
	fmt.Fprintln(out, line)
}

// fleetSpread returns the domain-count spread across schedulable members.
func fleetSpread(c *cluster.Cluster) int {
	st := c.Status()
	lo, hi := 1<<30, 0
	for _, m := range st.Members {
		if m.Draining {
			continue
		}
		if m.Load.Domains < lo {
			lo = m.Load.Domains
		}
		if m.Load.Domains > hi {
			hi = m.Load.Domains
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// printStatus renders the fleet table.
func printStatus(out io.Writer, c *cluster.Cluster) {
	st := c.Status()
	t := &metrics.Table{
		Title:   fmt.Sprintf("fleet status — %d queued, %d running", st.Queued, st.Running),
		Columns: []string{"host", "domains", "cap", "blocks", "active", "in/out", "state"},
	}
	for _, m := range st.Members {
		state := "ok"
		if m.Draining {
			state = "draining"
		}
		t.AddRow(m.Name,
			fmt.Sprintf("%d", m.Load.Domains),
			fmt.Sprintf("%d", m.Capacity),
			fmt.Sprintf("%d", m.Load.Blocks),
			fmt.Sprintf("%d", m.Load.ActiveMigrations),
			fmt.Sprintf("%d/%d", m.RunningIn, m.RunningOut),
			state)
	}
	fmt.Fprint(out, t.String())
}
