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

func main() {
	var (
		run     = flag.String("run", "table1", "experiment to run: table1, headline, fig4, sweep, ablation, modes, hetero, pattern, failover, autosize, migration, rebalance, chaos, contention, slo, ha, gossip, admit, hier, all")
		reps    = flag.Int("reps", 0, "replications per cell (default from experiment.Default)")
		seed    = flag.Int64("seed", 1, "master random seed")
		loadR   = flag.Float64("load-rate", 0, "override per-node job arrival rate")
		trafR   = flag.Float64("traffic-rate", 0, "override network-wide message rate")
		verbose = flag.Bool("v", false, "print extra detail")
		csvOut  = flag.Bool("csv", false, "emit table1 as CSV for plotting")
	)
	flag.StringVar(&sloOut, "slo-out", "", "with -run slo: also write the report JSON to this file")
	flag.IntVar(&sloRequests, "slo-requests", 0, "with -run slo: measured request count (default 5000)")
	flag.BoolVar(&sloNoTrace, "slo-notrace", false, "with -run slo: disable request tracing (overhead baseline)")
	flag.StringVar(&haOut, "ha-out", "", "with -run ha: also write the report JSON to this file")
	flag.StringVar(&gossipOut, "gossip-out", "", "with -run gossip: also write the report JSON to this file")
	flag.StringVar(&gossipSizes, "gossip-sizes", "", "with -run gossip: comma-separated fleet sizes (default 50,100,200,500)")
	flag.StringVar(&admitOut, "admit-out", "", "with -run admit: also write the report JSON to this file")
	flag.IntVar(&admitRequests, "admit-requests", 0, "with -run admit: measured requests per rep (default 1500)")
	flag.IntVar(&admitReps, "admit-reps", 0, "with -run admit: reps per admission mode (default 5)")
	flag.StringVar(&hierOut, "hier-out", "", "with -run hier: also write the report JSON to this file")
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

	verboseOut = *verbose
	if *csvOut && *run == "table1" {
		rows, err := experiment.RunTable1(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "expt:", err)
			os.Exit(1)
		}
		fmt.Print(experiment.Table1CSV(rows))
		return
	}
	if err := dispatch(*run, cfg, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "expt:", err)
		os.Exit(1)
	}
}

func dispatch(run string, cfg experiment.Config, verbose bool) error {
	switch run {
	case "table1":
		return runTable1(cfg)
	case "headline":
		return runHeadline(cfg)
	case "fig4":
		return runFig4()
	case "sweep":
		return runSweep(cfg)
	case "ablation":
		return runAblation(cfg, verbose)
	case "migration":
		return runMigration(cfg)
	case "rebalance":
		return runRebalance(cfg)
	case "modes":
		return runModes(cfg)
	case "hetero":
		return runHetero(cfg)
	case "pattern":
		return runPattern(cfg)
	case "failover":
		return runFailover(cfg)
	case "autosize":
		return runAutosize(cfg)
	case "chaos":
		return runChaos(cfg)
	case "contention":
		return runContention(cfg)
	case "slo":
		return runSLO(cfg)
	case "ha":
		return runHA(cfg)
	case "gossip":
		return runGossip(cfg)
	case "admit":
		return runAdmit(cfg)
	case "hier":
		return runHier(cfg)
	case "all":
		for _, r := range []string{"table1", "headline", "fig4", "sweep", "ablation", "modes", "hetero", "pattern", "failover", "autosize", "migration", "rebalance", "contention"} {
			fmt.Printf("==== %s ====\n", r)
			if err := dispatch(r, cfg, verbose); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", run)
	}
}

func runTable1(cfg experiment.Config) error {
	rows, err := experiment.RunTable1(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatTable1(rows))
	if verboseOut {
		fmt.Println()
		fmt.Print(experiment.FormatTable1Long(rows))
	}
	return nil
}

// verboseOut is set from the -v flag before dispatch.
var verboseOut bool

func runHeadline(cfg experiment.Config) error {
	rows, err := experiment.RunTable1(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatTable1(rows))
	fmt.Println()
	fmt.Print(experiment.FormatHeadline(experiment.ComputeHeadline(rows)))
	return nil
}

func runFig4() error {
	res, err := experiment.RunFig4(0)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatFig4(res))
	fmt.Println()
	fmt.Println(res.DOT)
	return nil
}

func runSweep(cfg experiment.Config) error {
	res, err := experiment.RunLoadSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatLoadSweep(res))
	fmt.Println()
	tres, err := experiment.RunTrafficSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatTrafficSweep(tres))
	fmt.Println()
	pres, err := experiment.RunPeriodSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatPeriodSweep(pres))
	return nil
}

func runAblation(cfg experiment.Config, verbose bool) error {
	res, err := experiment.RunAlgorithmAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAlgorithmAblation(res))
	fmt.Println()
	gap, err := experiment.RunGreedyGapAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatGreedyGap(gap))
	_ = verbose
	return nil
}

func runModes(cfg experiment.Config) error {
	res, err := experiment.RunModeAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatModeAblation(res))
	return nil
}

func runHetero(cfg experiment.Config) error {
	res, err := experiment.RunHeteroAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatHeteroAblation(res))
	return nil
}

func runFailover(cfg experiment.Config) error {
	res, err := experiment.RunFailover(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatFailover(res))
	return nil
}

func runPattern(cfg experiment.Config) error {
	res, err := experiment.RunPatternAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatPatternAblation(res))
	return nil
}

func runAutosize(cfg experiment.Config) error {
	res, err := experiment.RunAutosize(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAutosize(res))
	return nil
}

// runChaos exercises the real measurement plane (loopback agents behind
// fault-injecting proxies), not the simulation, so it is not part of
// -run all: its timeouts are wall-clock.
func runContention(cfg experiment.Config) error {
	res, err := experiment.RunContention(experiment.ContentionOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatContention(res))
	return nil
}

func runChaos(cfg experiment.Config) error {
	res, err := experiment.RunChaos(experiment.ChaosOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatChaos(res))
	return nil
}

func runMigration(cfg experiment.Config) error {
	res, err := experiment.RunMigration(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatMigration(res))
	return nil
}

func runRebalance(cfg experiment.Config) error {
	res, err := experiment.RunRebalance(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatRebalance(res))
	return nil
}

// sloOut, sloRequests and sloNoTrace are set from flags before dispatch.
var (
	sloOut      string
	sloRequests int
	sloNoTrace  bool
)

// runSLO drives the sustained-load harness against an in-process selectd
// and prints the latency/error summary; -slo-out also writes the
// machine-readable report for the benchdiff -slo CI gate. Like chaos it
// measures wall-clock, so it is not part of -run all.
func runSLO(cfg experiment.Config) error {
	rep, err := experiment.RunSLO(experiment.SLOOptions{
		Seed:     cfg.Seed,
		Requests: sloRequests,
		NoTrace:  sloNoTrace,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatSLO(rep))
	if sloOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(sloOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", sloOut)
	}
	return nil
}

// haOut is set from the -ha-out flag before dispatch.
var haOut string

// gossipOut / gossipSizes are set from the -gossip-* flags before dispatch.
var (
	gossipOut   string
	gossipSizes string
)

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
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(gossipOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", gossipOut)
	}
	if !rep.Pass {
		return fmt.Errorf("gossip convergence failed: a bound was missed (see report above)")
	}
	return nil
}

// admitOut / admitRequests / admitReps are set from the -admit-* flags
// before dispatch.
var (
	admitOut      string
	admitRequests int
	admitReps     int
)

// runAdmit drives the epoch-batched admission A/B benchmark: the same
// sustained leased-select load against a serial-admission service and a
// batched one, both WAL-backed, compared with Welch's t-test. Exits
// non-zero when the speedup or tail-latency gate fails, so the CI admit
// job gates on it directly. Wall-clock sensitive, so not part of -run all.
func runAdmit(cfg experiment.Config) error {
	rep, err := experiment.RunAdmit(experiment.AdmitOptions{
		Seed:     cfg.Seed,
		Requests: admitRequests,
		Reps:     admitReps,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatAdmit(rep))
	if admitOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(admitOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", admitOut)
	}
	if !rep.Pass {
		return fmt.Errorf("admission benchmark failed its gate: %s", strings.Join(rep.Failures, "; "))
	}
	return nil
}

// hierOut is set from the -hier-out flag before dispatch.
var hierOut string

// runHier drives the randomized grouped-vs-ungrouped equivalence suite.
// Exits non-zero when a comparison diverges, so the CI hier job gates on
// it directly.
func runHier(cfg experiment.Config) error {
	rep := experiment.RunHier(experiment.HierOptions{Seed: cfg.Seed})
	fmt.Print(experiment.FormatHier(rep))
	if hierOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(hierOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", hierOut)
	}
	if !rep.Pass {
		return fmt.Errorf("grouped selection equivalence suite failed its gate: %s", strings.Join(rep.Failures, "; "))
	}
	return nil
}

// runHA drives the replicated-ledger fault-injection harness: a 3-replica
// in-process cluster put through kill-the-leader, follower-partition, and
// torn-append schedules. Exits non-zero when any invariant fails, so the
// CI ha job gates on it directly. Wall-clock timing, so not in -run all.
func runHA(cfg experiment.Config) error {
	rep, err := experiment.RunHA(experiment.HAOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatHA(rep))
	if haOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(haOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", haOut)
	}
	if !rep.Pass {
		return fmt.Errorf("ha harness failed: an invariant did not hold (see report above)")
	}
	return nil
}
