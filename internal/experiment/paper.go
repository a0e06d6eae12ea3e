package experiment

import (
	"fmt"
	"io"
)

// PaperRun is one experiment of `expt -run all`: its name and how it
// prints its tables from a Config.
type PaperRun struct {
	Name  string
	Print func(Config, io.Writer) error
}

// Paper lists the simulated experiments `expt -run all` prints, in order:
// the paper's Table 1, §4.3 headline and Figure 4, then the sensitivity,
// ablation and §3.3/§3.4 studies around them. Every one is deterministic
// for a fixed Config, and testdata/<name>.golden pins its output at
// EXPERIMENTS.md's settings (-reps 10 -seed 1).
var Paper = []PaperRun{
	{"table1", printTable1},
	{"headline", printHeadline},
	{"fig4", printFig4},
	{"sweep", printSweep},
	{"ablation", printAblation},
	{"modes", printModes},
	{"hetero", printHetero},
	{"pattern", printPattern},
	{"failover", printFailover},
	{"autosize", printAutosize},
	{"migration", printMigration},
	{"rebalance", printRebalance},
	{"contention", printContention},
}

func printTable1(cfg Config, w io.Writer) error {
	rows, err := RunTable1(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatTable1(rows))
	return err
}

func printHeadline(cfg Config, w io.Writer) error {
	rows, err := RunTable1(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s", FormatTable1(rows), FormatHeadline(ComputeHeadline(rows)))
	return err
}

func printFig4(_ Config, w io.Writer) error {
	res, err := RunFig4(0)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", FormatFig4(res), res.DOT)
	return err
}

func printSweep(cfg Config, w io.Writer) error {
	load, err := RunLoadSweep(cfg)
	if err != nil {
		return err
	}
	traffic, err := RunTrafficSweep(cfg)
	if err != nil {
		return err
	}
	period, err := RunPeriodSweep(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n%s", FormatLoadSweep(load), FormatTrafficSweep(traffic), FormatPeriodSweep(period))
	return err
}

func printAblation(cfg Config, w io.Writer) error {
	cells, err := RunAlgorithmAblation(cfg)
	if err != nil {
		return err
	}
	gap, err := RunGreedyGapAblation(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s", FormatAlgorithmAblation(cells), FormatGreedyGap(gap))
	return err
}

func printModes(cfg Config, w io.Writer) error {
	cells, err := RunModeAblation(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatModeAblation(cells))
	return err
}

func printHetero(cfg Config, w io.Writer) error {
	cells, err := RunHeteroAblation(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatHeteroAblation(cells))
	return err
}

func printPattern(cfg Config, w io.Writer) error {
	cells, err := RunPatternAblation(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatPatternAblation(cells))
	return err
}

func printFailover(cfg Config, w io.Writer) error {
	res, err := RunFailover(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatFailover(res))
	return err
}

func printAutosize(cfg Config, w io.Writer) error {
	res, err := RunAutosize(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatAutosize(res))
	return err
}

func printMigration(cfg Config, w io.Writer) error {
	res, err := RunMigration(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatMigration(res))
	return err
}

func printRebalance(cfg Config, w io.Writer) error {
	res, err := RunRebalance(cfg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatRebalance(res))
	return err
}

func printContention(cfg Config, w io.Writer) error {
	res, err := RunContention(ContentionOptions{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, FormatContention(res))
	return err
}
