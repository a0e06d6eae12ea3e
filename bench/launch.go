package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes while running
// lives, relative to the repository root: binaries, the Go build cache and
// per-run scratch (documents, lease directories). Results go to bench/out.
const buildDir = ".bench_build"

// repoRoot walks up from the working directory to the directory holding the
// nodeselect module, so the benchmark runs from the root or from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module nodeselect\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no nodeselect module above the working directory")
		}
		dir = parent
	}
}

// goEnv keeps everything the go command writes (build cache, module cache,
// telemetry counters under the user's config directory) inside buildDir and
// off the network. run.sh sets the same for the benchmark's own build.
func goEnv(root string) []string {
	dir := filepath.Join(root, buildDir)
	return []string{
		"GOCACHE=" + filepath.Join(dir, "gocache"),
		"GOPATH=" + filepath.Join(dir, "gopath"),
		"XDG_CONFIG_HOME=" + filepath.Join(dir, "config"),
		"GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=-mod=mod",
	}
}

// binaries names the two built daemons and the optional flags selectd
// lists in its usage.
type binaries struct {
	selectd, remosd string
	selectdUsage    string
}

// buildBinaries compiles selectd and remosd from the checkout into
// buildDir/bin with a build cache inside the checkout. A warm cache makes
// this a sub-second no-op.
func buildBinaries(root string) (binaries, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/selectd", "./cmd/remosd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), goEnv(root)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build selectd remosd: %w\n%s", err, out)
	}
	b := binaries{selectd: filepath.Join(bin, "selectd"), remosd: filepath.Join(bin, "remosd")}
	// -h prints the flag list; its exit status is not interesting.
	usage, _ := exec.Command(b.selectd, "-h").CombinedOutput()
	b.selectdUsage = string(usage)
	return b, nil
}

// hasFlag reports whether selectd's usage lists the flag, so an optional
// flag is passed only while it exists.
func (b binaries) hasFlag(name string) bool {
	return strings.Contains(b.selectdUsage, "\n  -"+name+"\n") || strings.Contains(b.selectdUsage, "\n  -"+name+" ")
}

// procs tracks every process the benchmark started so that each exit path
// kills all of them.
type procs struct {
	mu   sync.Mutex
	cmds []*exec.Cmd
}

var started procs

func (p *procs) add(c *exec.Cmd) {
	p.mu.Lock()
	p.cmds = append(p.cmds, c)
	p.mu.Unlock()
}

// killAll SIGKILLs the process group of every started process and waits
// for each; safe to call more than once.
func (p *procs) killAll() {
	p.mu.Lock()
	cmds := p.cmds
	p.cmds = nil
	p.mu.Unlock()
	for _, c := range cmds {
		if c.Process != nil {
			_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // already gone is fine
			_ = c.Wait()                                      // reaps; the kill is the expected error
		}
	}
}

func (p *procs) forget(c *exec.Cmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, x := range p.cmds {
		if x == c {
			p.cmds = append(p.cmds[:i], p.cmds[i+1:]...)
			return
		}
	}
}

// spawn starts a daemon in its own process group (so the group can be
// killed) that dies with the benchmark.
func spawn(path string, args []string, stdin []byte, log *os.File) (*exec.Cmd, error) {
	cmd := exec.Command(path, args...)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	started.add(cmd)
	return cmd, nil
}

// freePorts finds n consecutive unused loopback ports (remosd puts node i
// on base+i). It draws from 10000-29999, below Linux's ephemeral range
// (32768 up by default): a port the kernel hands out for :0 can be taken
// again by an outbound connection (selectd dials 21 agents before it
// listens) between the choice and the bind.
func freePorts(n int, rng *rand.Rand) (int, error) {
	for attempt := 0; attempt < 200; attempt++ {
		base := 10000 + rng.Intn(20000-n)
		ok := true
		for i := 0; i < n && ok; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				ok = false
				break
			}
			ln.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("bench: no run of %d free loopback ports", n)
}

// instance is one running selectd (with its remosd fleet, if any).
type instance struct {
	addr    string
	selectd *exec.Cmd
	remosd  *exec.Cmd
	logs    []*os.File
}

func (in *instance) pid() int { return in.selectd.Process.Pid }

// health is the part of GET /healthz the benchmark reads.
type health struct {
	State string `json:"state"`
	Polls int    `json:"polls"`
}

func getHealth(c *client) (health, error) {
	var h health
	r := c.do("GET", "/healthz", nil)
	if r.err != nil {
		return h, r.err
	}
	if r.status != 200 {
		return h, fmt.Errorf("healthz status %d", r.status)
	}
	return h, json.Unmarshal(r.body, &h)
}

// waitFor polls cond with jittered, growing pauses (the dial-with-retry
// bring-up idiom) until it holds or the deadline passes.
func waitFor(what string, deadline time.Duration, rng *rand.Rand, cond func() bool) error {
	stop := time.Now().Add(deadline)
	// The first pauses are far shorter than the fastest set-up (about
	// 10 ms), so readiness is seen within a few percent of when it happens.
	pause := 200 * time.Microsecond
	for !cond() {
		if time.Now().After(stop) {
			return fmt.Errorf("bench: timed out after %s waiting for %s", deadline, what)
		}
		time.Sleep(pause*3/4 + time.Duration(rng.Int63n(int64(pause/2))))
		if pause < 20*time.Millisecond {
			pause = pause * 5 / 4
		}
	}
	return nil
}

// start spawns the workload's processes and returns once /healthz is ok.
// dir is a fresh scratch directory for this instance.
func start(w workload, in *inputs, bins binaries, dir string, rng *rand.Rand) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	inst := &instance{}
	openLog := func(name string) (*os.File, error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err == nil {
			inst.logs = append(inst.logs, f)
		}
		return f, err
	}
	port, err := freePorts(1, rng)
	if err != nil {
		return nil, err
	}
	inst.addr = "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-listen", inst.addr, "-period", w.period.String()}
	var stdin []byte
	if w.agents {
		n := in.graph.NumNodes()
		base, err := freePorts(n, rng)
		if err != nil {
			return nil, err
		}
		rlog, err := openLog("remosd.log")
		if err != nil {
			return nil, err
		}
		fleet := "127.0.0.1:" + strconv.Itoa(base)
		// The fleet clock ticks faster than selectd polls, so two polls
		// never read the same counter instant.
		inst.remosd, err = spawn(bins.remosd, []string{"-listen", fleet, "-tick", "200ms"}, in.doc, rlog)
		if err != nil {
			return nil, err
		}
		err = waitFor("remosd fleet", 20*time.Second, rng, func() bool {
			c, err := net.DialTimeout("tcp", "127.0.0.1:"+strconv.Itoa(base+n-1), time.Second)
			if err != nil {
				return false
			}
			c.Close()
			return true
		})
		if err != nil {
			return nil, err
		}
		args = append(args, "-agents", fleet, "-nodes", strconv.Itoa(n))
	} else {
		args = append(args, "-stdin")
		stdin = in.doc
	}
	if bins.hasFlag("debug") {
		args = append(args, "-debug") // serves the runtime's allocation counters; costs nothing unasked
	}
	if w.hierarchy && bins.hasFlag("hierarchy") {
		args = append(args, "-hierarchy")
	}
	if w.leaseDir {
		args = append(args, "-lease-dir", filepath.Join(dir, "leases"))
	}
	slog, err := openLog("selectd.log")
	if err != nil {
		return nil, err
	}
	inst.selectd, err = spawn(bins.selectd, args, stdin, slog)
	if err != nil {
		return nil, err
	}
	probe := newClient(inst.addr)
	defer probe.close()
	err = waitFor("selectd /healthz ok", 60*time.Second, rng, func() bool {
		h, err := getHealth(probe)
		return err == nil && h.State == "ok"
	})
	if err != nil {
		return nil, fmt.Errorf("%w (see %s)", err, slog.Name())
	}
	return inst, nil
}

// stop shuts the instance down: SIGTERM to each daemon, which must exit 0
// within the deadline. On any failure the groups are killed.
func (in *instance) stop() error {
	defer func() {
		for _, f := range in.logs {
			f.Close()
		}
	}()
	var firstErr error
	for _, c := range []*exec.Cmd{in.selectd, in.remosd} {
		if c == nil {
			continue
		}
		started.forget(c)
		name := filepath.Base(c.Path)
		if err := c.Process.Signal(syscall.SIGTERM); err != nil {
			firstErr = errors.Join(firstErr, fmt.Errorf("signal %s: %w", name, err))
		}
		done := make(chan error, 1)
		go func() { done <- c.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				firstErr = errors.Join(firstErr, fmt.Errorf("%s did not exit 0 on SIGTERM: %w", name, err))
			}
		case <-time.After(15 * time.Second):
			_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // deadline passed; the kill cannot usefully fail
			<-done
			firstErr = errors.Join(firstErr, fmt.Errorf("%s ignored SIGTERM for 15s", name))
		}
	}
	return firstErr
}
