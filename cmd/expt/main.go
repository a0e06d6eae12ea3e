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
	"flag"
	"fmt"
	"os"

	"nodeselect/internal/experiment"
)

func main() {
	var (
		run     = flag.String("run", "table1", "experiment to run: table1, headline, fig4, sweep, ablation, modes, hetero, pattern, failover, autosize, migration, rebalance, contention, all")
		reps    = flag.Int("reps", 0, "replications per cell (default from experiment.Default)")
		seed    = flag.Int64("seed", 1, "master random seed")
		loadR   = flag.Float64("load-rate", 0, "override per-node job arrival rate")
		trafR   = flag.Float64("traffic-rate", 0, "override network-wide message rate")
		verbose = flag.Bool("v", false, "with -run table1: also print mean ± 95% CI and Welch's p per cell")
		csvOut  = flag.Bool("csv", false, "emit table1 as CSV for plotting")
	)
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
