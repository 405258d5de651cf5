package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_tables.json from the current code")

const goldenTablesFile = "testdata/golden_tables.json"

// TestGoldenTables pins every experiment's table bit for bit: the FNV
// digest of each id's -format json output, at 30,000 instructions per
// run, seed 42 and one worker, must equal the one recorded in testdata.
// A change to how experiments run their simulations must leave the table
// untouched; a deliberate change to an experiment's results regenerates
// it with
//
//	go test ./internal/experiments -run TestGoldenTables -update-golden
func TestGoldenTables(t *testing.T) {
	r := NewRunner(30_000, 42)
	r.Workers = 1
	ids := append(AllIDs(), SensitivityIDs()...)
	got := make(map[string]string, len(ids))
	for _, id := range ids {
		var buf bytes.Buffer
		if err := RunByID(r, id, "json", &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got[id] = fmt.Sprintf("%016x", h.Sum64())
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTablesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenTablesFile)
	if err != nil {
		t.Fatalf("read golden table: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d experiments, the test runs %d", len(want), len(got))
	}
	for id, d := range got {
		if want[id] != d {
			t.Errorf("%s: digest %s, golden %s", id, d, want[id])
		}
	}
}
