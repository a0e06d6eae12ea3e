package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestPaperGolden pins every `expt -run all` experiment's printed output,
// byte for byte, at EXPERIMENTS.md's settings (-reps 10 -seed 1): the
// paper's tables are the repository's product, so any change that moves a
// simulated number fails here. Run with -update to rewrite the goldens
// after a deliberate change, and say why in the commit.
func TestPaperGolden(t *testing.T) {
	cfg := Default()
	cfg.Replications = 10
	cfg.Seed = 1
	for _, exp := range Paper {
		t.Run(exp.Name, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			if err := exp.Print(cfg, &got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", exp.Name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output moved from %s:\n--- got ---\n%s--- want ---\n%s", exp.Name, path, got.Bytes(), want)
			}
		})
	}
}
