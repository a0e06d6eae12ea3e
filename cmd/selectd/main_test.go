package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// syncBuffer is run's stdout: the daemon writes while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// takenAddr returns a loopback address that is already listening, so a
// server asked to bind it fails.
func takenAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// leasedSelect admits one lease through the daemon at addr, retrying
// while the service has too few samples to answer, and returns its ID.
func leasedSelect(t *testing.T, addr string) string {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	body := `{"m":2,"demand":{"cpu":0.1},"lease_ttl":60}`
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := client.Post("http://"+addr+"/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Lease struct {
				ID string `json:"id"`
			} `json:"lease"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err != nil || got.Lease.ID == "" {
				t.Fatalf("leased select: no lease ID (decode error %v)", err)
			}
			return got.Lease.ID
		}
	}
	t.Fatal("leased select never succeeded")
	return ""
}

// TestRunUnwinds drives run to each way it exits — the context ends, a
// server fails while serving, a server fails to start — and checks that
// every exit stops what started, newest first: the replica node before
// the ledger it applies to, the ledger (flushing its WAL snapshot)
// before the measurement source, and no goroutine of run's left behind.
func TestRunUnwinds(t *testing.T) {
	var doc bytes.Buffer
	if err := topology.WriteDocument(&doc, testbed.CMU(), nil); err != nil {
		t.Fatal(err)
	}
	const (
		standalone = "http server, sweeper, polling, rebalance, batching, ledger, clock"
		replicated = "http server, replica server, sweeper, polling, rebalance, batching, replica node, ledger, clock"
	)
	cases := []struct {
		name    string
		replica bool
		occupy  string // a flag whose address is already taken
		want    string // the unwind order
	}{
		{name: "standalone/cancel", want: standalone},
		{name: "standalone/listen-taken", occupy: "-listen",
			want: "sweeper, polling, rebalance, batching, ledger, clock"},
		{name: "replica/cancel", replica: true, want: replicated},
		{name: "replica/server-fails", replica: true, occupy: "-replica-listen", want: replicated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-stdin", "-listen", "127.0.0.1:0", "-period", "50ms"}
			if c.replica {
				args = append(args, "-replica-id", "a", "-election-timeout", "50ms",
					"-replica-dir", filepath.Join(dir, "replica"), "-replica-listen", "127.0.0.1:0")
			} else {
				args = append(args, "-lease-dir", filepath.Join(dir, "leases"))
			}
			if c.occupy != "" {
				args = append(args, c.occupy, takenAddr(t)) // the last value of a flag wins
			}
			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &syncBuffer{}
			done := make(chan error, 1)
			go func() { done <- run(ctx, args, bytes.NewReader(doc.Bytes()), out) }()

			var leaseID string
			if c.occupy == "" {
				var addr string
				for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("run never served; stdout:\n%s", out)
					}
					if m := servingOn.FindStringSubmatch(out.String()); m != nil {
						addr = m[1]
					}
				}
				if !c.replica {
					leaseID = leasedSelect(t, addr)
				}
				cancel()
			}
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("run did not return; stdout:\n%s", out)
			}
			if wantErr := c.occupy != ""; (err != nil) != wantErr {
				t.Fatalf("run returned %v, want an error: %v", err, wantErr)
			}

			m := regexp.MustCompile(`selectd: stopped (.*)\n`).FindStringSubmatch(out.String())
			if m == nil {
				t.Fatalf("no unwind reported; stdout:\n%s", out)
			}
			if m[1] != c.want {
				t.Errorf("unwind order\n got %s\nwant %s", m[1], c.want)
			}

			if !c.replica {
				raw, err := os.ReadFile(filepath.Join(dir, "leases", "ledger.snap.json"))
				if err != nil {
					t.Fatalf("ledger closed without its WAL snapshot: %v", err)
				}
				var snap struct {
					Active []struct {
						ID string `json:"id"`
					} `json:"active"`
				}
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				var ids []string
				for _, r := range snap.Active {
					ids = append(ids, r.ID)
				}
				if leaseID != "" && !slices.Contains(ids, leaseID) {
					t.Errorf("WAL snapshot holds %v, want the acknowledged %s", ids, leaseID)
				}
			}

			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					var dump strings.Builder
					pprof.Lookup("goroutine").WriteTo(&dump, 1)
					t.Fatalf("%d goroutines after run returned, %d before:\n%s",
						runtime.NumGoroutine(), goroutines, dump.String())
				}
			}
		})
	}
}

// TestFlags pins selectd's command line, and the usage format
// bench/launch.go's hasFlag reads to decide which optional flags to pass.
func TestFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, strings.NewReader(""), &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	usage := out.String()
	var names []string
	for _, line := range strings.Split(usage, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	want := []string{
		"agents", "allow-partial", "batch-window", "connect-timeout", "debug",
		"election-timeout", "exclude-stale", "hierarchy", "io-timeout",
		"lease-dir", "lease-max-ttl", "lease-ttl", "listen", "max-stale",
		"nodes", "peer-urls", "period", "plan-cache", "rebalance",
		"rebalance-auto", "replica-dir", "replica-heartbeat", "replica-id",
		"replica-listen", "replica-peers", "stdin", "trace-off",
	}
	if !slices.Equal(names, want) {
		t.Errorf("flags\n got %d %v\nwant %d %v", len(names), names, len(want), want)
	}
	for _, f := range []string{"debug", "hierarchy"} {
		if !strings.Contains(usage, "\n  -"+f+"\n") && !strings.Contains(usage, "\n  -"+f+" ") {
			t.Errorf("usage does not list -%s where hasFlag looks:\n%s", f, usage)
		}
	}
}
