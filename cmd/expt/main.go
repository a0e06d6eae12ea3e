// Command expt runs the paper-reproduction experiments and prints
// paper-style tables.
//
// Usage:
//
//	expt -run table1 [-reps 5] [-seed 1]
//	expt -run headline
//	expt -run fig4
//	expt -run sweep
//	expt -run ablation
//	expt -run migration
//	expt -run all
//
// The wall-clock harnesses (chaos, slo, ha, gossip, admit) are not part of
// -run all; slo, ha, gossip and admit exit non-zero when their gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nodeselect/internal/experiment"
)

// haOut, gossipOut and gossipSizes are set from the -ha-out and -gossip-*
// flags before dispatch.
var (
	haOut       string
	gossipOut   string
	gossipSizes string
)

func main() {
	var (
		run     = flag.String("run", "table1", "experiment to run: table1, headline, fig4, sweep, ablation, modes, hetero, pattern, failover, autosize, migration, rebalance, chaos, contention, slo, ha, gossip, admit, all")
		reps    = flag.Int("reps", 0, "replications per cell (default from experiment.Default)")
		seed    = flag.Int64("seed", 1, "master random seed")
		loadR   = flag.Float64("load-rate", 0, "override per-node job arrival rate")
		trafR   = flag.Float64("traffic-rate", 0, "override network-wide message rate")
		verbose = flag.Bool("v", false, "with -run table1: also print mean ± 95% CI and Welch's p per cell")
		csvOut  = flag.Bool("csv", false, "emit table1 as CSV for plotting")
	)
	flag.StringVar(&haOut, "ha-out", "", "with -run ha: also write the report JSON to this file")
	flag.StringVar(&gossipOut, "gossip-out", "", "with -run gossip: also write the report JSON to this file")
	flag.StringVar(&gossipSizes, "gossip-sizes", "", "with -run gossip: comma-separated fleet sizes (default 50,100,200,500)")
	flag.Parse()

	cfg := experiment.Default()
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Replications = *reps
	}
	if *loadR > 0 {
		cfg.LoadRate = *loadR
	}
	if *trafR > 0 {
		cfg.TrafficRate = *trafR
	}

	if *run == "table1" && (*csvOut || *verbose) {
		rows, err := experiment.RunTable1(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "expt:", err)
			os.Exit(1)
		}
		if *csvOut {
			fmt.Print(experiment.Table1CSV(rows))
		} else {
			fmt.Print(experiment.FormatTable1(rows))
			fmt.Println()
			fmt.Print(experiment.FormatTable1Long(rows))
		}
		return
	}
	if err := dispatch(*run, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "expt:", err)
		os.Exit(1)
	}
}

func dispatch(run string, cfg experiment.Config) error {
	for _, exp := range experiment.Paper {
		if exp.Name == run {
			return exp.Print(cfg, os.Stdout)
		}
	}
	switch run {
	case "chaos":
		return runChaos(cfg)
	case "slo":
		return runSLO(cfg)
	case "ha":
		return runHA(cfg)
	case "gossip":
		return runGossip(cfg)
	case "admit":
		return runAdmit(cfg)
	case "all":
		for _, exp := range experiment.Paper {
			fmt.Printf("==== %s ====\n", exp.Name)
			if err := exp.Print(cfg, os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", run)
	}
}

// runChaos exercises the real measurement plane (loopback agents behind
// fault-injecting proxies), not the simulation: its timeouts are
// wall-clock.
func runChaos(cfg experiment.Config) error {
	res, err := experiment.RunChaos(experiment.ChaosOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatChaos(res))
	return nil
}

// runSLO drives the sustained-load harness against an in-process selectd
// and prints the latency/error summary. Exits non-zero when p99 or the 5xx
// rate blows its budget, so the CI slo job gates on it directly.
func runSLO(cfg experiment.Config) error {
	rep, err := experiment.RunSLO(experiment.SLOOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatSLO(rep))
	if !rep.Pass {
		return fmt.Errorf("SLO run failed its budget: %s", strings.Join(rep.Failures, "; "))
	}
	return nil
}

// writeReport writes v as indented JSON to path.
func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runGossip drives the gossip-plane convergence experiment: in-process
// meshes at several fleet sizes, measuring propagation-time CDFs under
// churn, reconvergence after a healed partition, and the staleness bound
// live entries stay inside. Exits non-zero when any bound is missed, so
// the CI gossip job gates on it directly.
func runGossip(cfg experiment.Config) error {
	opts := experiment.GossipOptions{Seed: cfg.Seed}
	if gossipSizes != "" {
		for _, part := range strings.Split(gossipSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -gossip-sizes entry %q: %w", part, err)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}
	rep, err := experiment.RunGossip(opts)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatGossip(rep))
	if gossipOut != "" {
		if err := writeReport(gossipOut, rep); err != nil {
			return err
		}
	}
	if !rep.Pass {
		return fmt.Errorf("gossip convergence failed: a bound was missed (see report above)")
	}
	return nil
}

// runAdmit drives the epoch-batched admission A/B benchmark: the same
// sustained leased-select load against a serial-admission service and a
// batched one, both WAL-backed, compared with Welch's t-test. Exits
// non-zero when the speedup or tail-latency gate fails, so the CI admit
// job gates on it directly.
func runAdmit(cfg experiment.Config) error {
	rep, err := experiment.RunAdmit(experiment.AdmitOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAdmit(rep))
	if !rep.Pass {
		return fmt.Errorf("admission benchmark failed its gate: %s", strings.Join(rep.Failures, "; "))
	}
	return nil
}

// runHA drives the replicated-ledger fault-injection harness: a 3-replica
// in-process cluster put through kill-the-leader, follower-partition, and
// torn-append schedules. Exits non-zero when any invariant fails, so the
// CI ha job gates on it directly.
func runHA(cfg experiment.Config) error {
	rep, err := experiment.RunHA(experiment.HAOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatHA(rep))
	if haOut != "" {
		if err := writeReport(haOut, rep); err != nil {
			return err
		}
	}
	if !rep.Pass {
		return fmt.Errorf("ha harness failed: an invariant did not hold (see report above)")
	}
	return nil
}
