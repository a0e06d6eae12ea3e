// Command bench is the repository's benchmark: it generates a workload
// from a seed, starts the real selectd (and remosd) binaries on loopback,
// drives POST /select open-loop on a Poisson schedule and then closed-loop,
// checks every answer, and reports the end-to-end metrics of BENCHMARK.json
// (-trace 0) or the per-layer metrics (-trace 1). See README.md.
//
//	bash bench/run.sh --workload fig4_advisory --seed 1 --seconds 22 --trace 0
//	bash bench/run.sh -agree bench/out/a.json bench/out/b.json
//	bash bench/run.sh -spread bench/out/a.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// record is one run as kept in a result file (a JSON array of records).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// NonComparable marks a -smoke run: shortened phases, not to be set
	// beside full runs.
	NonComparable bool                   `json:"non_comparable,omitempty"`
	GitSHA        string                 `json:"git_sha"`
	GoVersion     string                 `json:"go_version"`
	NProc         int                    `json:"nproc"`
	Connections   int                    `json:"connections"`
	When          time.Time              `json:"when"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	Invalid       []string               `json:"invalid,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	Info          map[string]float64     `json:"info,omitempty"`
	Windows       map[string][]float64   `json:"windows,omitempty"`
}

// appendRecord adds rec to the JSON array in path, creating it if needed.
func appendRecord(path string, rec record) error {
	var recs []record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 22, "measuring time of the run, split 2:15:5 into warm-up, open loop, closed loop")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics")
		out     = flag.String("out", "", "result file to append the run to (default bench/out/runs.json)")
		smoke   = flag.Bool("smoke", false, "fig4_advisory with 2 s phases and one set-up; output marked non-comparable")
		agree   = flag.Bool("agree", false, "compare two result files against BENCHMARK.json's bounds: -agree a.json b.json")
		spread  = flag.Bool("spread", false, "print each metric's median, quartiles and spread over the runs in a result file: -spread runs.json")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	switch {
	case *agree:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -agree a.json b.json")
			return 2
		}
		return agreeMain(root, flag.Arg(0), flag.Arg(1))
	case *spread:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: bench -spread runs.json")
			return 2
		}
		return spreadMain(root, flag.Arg(0))
	}

	if *smoke {
		*name, *seconds = "fig4_advisory", 6
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "runs.json")
	}

	// Every exit path kills what was started: a signal, an error, a failed
	// check.
	bins, err := buildBinaries(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	e := &env{
		root:  root,
		bins:  bins,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid()))),
		nconn: nproc(),
	}
	e.scratch, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cleanUp := func() {
		started.killAll()
		if e.scratch != "" {
			os.RemoveAll(e.scratch)
		}
	}
	defer cleanUp()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanUp()
		os.Exit(130)
	}()

	var res *runResult
	if *trace == 1 {
		res, err = runTraced(e, w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(e, w, *seed, *seconds, *smoke)
	}
	if err != nil {
		started.killAll()
		// The daemons' logs say why; leave them.
		fmt.Fprintf(os.Stderr, "bench: %v (logs in %s)\n", err, e.scratch)
		e.scratch = ""
		return 1
	}

	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, NonComparable: *smoke,
		GitSHA: gitSHA(root), GoVersion: runtime.Version(), NProc: nproc(), Connections: e.nconn,
		When: time.Now().UTC(), Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Failures: res.failures, Invalid: res.invalid, Metrics: res.metrics, Info: res.info, Windows: res.windows,
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	title := fmt.Sprintf("%s seed=%d seconds=%d trace=%d", w.name, *seed, *seconds, *trace)
	if *smoke {
		title += " SMOKE (not comparable)"
	}
	printMetrics(os.Stdout, title, res.metrics)
	if len(res.info) > 0 {
		info := map[string]metricValue{}
		for k, v := range res.info {
			info[k] = metricValue{Value: v}
		}
		printMetrics(os.Stdout, "run info", info)
	}
	for _, why := range res.invalid {
		fmt.Fprintln(os.Stderr, "bench: INVALID RUN:", why)
	}
	for _, why := range res.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", why)
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
