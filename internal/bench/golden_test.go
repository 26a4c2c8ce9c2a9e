package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the quick-table golden files")

// TestQuickTablesGolden pins every experiment's quick report byte for byte:
// the tables are a deterministic function of the seeds, the cost curves and
// the simulators' event order, so any change to those shows up here as a
// diff. Intentional changes re-bless with
// `go test ./internal/bench -run TestQuickTablesGolden -update`.
func TestQuickTablesGolden(t *testing.T) {
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Run(id, Options{Out: &buf, Quick: true, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (bless with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s report differs from %s:\n--- got ---\n%s--- want ---\n%s", id, path, buf.Bytes(), want)
			}
		})
	}
}
