package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// A/A mode answers "can this benchmark tell a regression from its own
// noise": it runs the same code as two sets of runs, every run a child
// process with its own seed (peak_rss_mib is a per-process number), and
// judges each end-to-end metric × workload the way a reviewer of a later
// change will — the spread of each set (quartile distance over median) and
// the shift of the second median against the first, both against the
// metric's bound in BENCHMARK.json. Children run one at a time and are
// waited for; a child that outlives its timeout is killed.

// aaRuns is the runs per set, each with its own seed: what the driver makes.
const aaRuns = 10

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runChild runs one workload once in a child process and returns its
// result line.
func runChild(self, workload string, seed int64, seconds float64) (*output, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil { // Run waits for the child to exit
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, out.Failed, out.Attempted)
	}
	return &out, nil
}

func runAA(o options) error {
	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seconds := o.seconds
	if m.RunSeconds > 0 {
		seconds = float64(m.RunSeconds)
	}
	var workloads []string
	for _, w := range m.Workloads {
		if o.workload == "all" || o.workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w] = map[string][]float64{}
			for r := 0; r < aaRuns; r++ {
				seed := o.seed + int64(set*aaRuns+r)
				out, err := runChild(self, w, seed, seconds)
				if err != nil {
					return err
				}
				for name, mv := range out.Metrics {
					values[set][w][name] = append(values[set][w][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "set %c  %-15s seed %-3d done\n", 'A'+set, w, seed)
			}
		}
	}
	fmt.Printf("%-15s %-14s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "shift", "bound", "verdict")
	failed := 0
	for _, w := range workloads {
		for _, d := range m.EndToEnd {
			a, b := values[0][w][d.Name], values[1][w][d.Name]
			ma, mb := median(a), median(b)
			// shift is how far B's median is from A's, as a share of A's. The
			// two sets are the same code, so either direction is disagreement.
			shift := (mb - ma) / ma
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "pass"
			switch {
			case math.Abs(shift) > d.Bound:
				verdict = "FAIL shift"
			case d.Name != "setup_s" && max(sa, sb) > d.Bound:
				verdict = "FAIL spread"
			case d.Name != "setup_s" && max(sa, sb) > d.Bound/3:
				verdict = "pass (spread above bound/3)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failed++
			}
			fmt.Printf("%-15s %-14s %12.6g %7.4f %12.6g %7.4f %+8.4f %6.3f  %s\n",
				w, d.Name, ma, sa, mb, sb, shift, d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric × workload pairs outside their bounds", failed)
	}
	return nil
}
