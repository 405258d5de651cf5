package oracle

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlpcache/internal/learn"
	"mlpcache/internal/sim"
	"mlpcache/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_oracle.json from the current code")

const goldenOracleFile = "testdata/golden_oracle.json"

// goldenLog is one pinned log: build returns it, geoms lists the
// geometries Compare and learn.Train are pinned at, and bits the
// training table sizes at the first geometry (the others train at the
// first size only).
type goldenLog struct {
	name  string
	build func() (*Log, error)
	geoms [][2]int
	bits  []int
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenLogs() []goldenLog {
	// The live L2 and three small geometries whose sets overflow on
	// almost every miss: one fully associative, one with a set count
	// that is not a power of two, one direct-mapped.
	captured := [][2]int{{1024, 16}, {1, 4}, {3, 5}, {64, 1}}
	var logs []goldenLog
	for _, bench := range []string{"mcf", "art", "parser", "ammp"} {
		for _, spec := range []sim.PolicySpec{
			{Kind: sim.PolicyLRU},
			{Kind: sim.PolicyLIN, Lambda: 4},
			{Kind: sim.PolicySBAR, Lambda: 4, LeaderSets: 32},
		} {
			bench, spec := bench, spec
			logs = append(logs, goldenLog{
				name: "captured/" + bench + "/" + spec.String(),
				build: func() (*Log, error) {
					w, _ := workload.ByName(bench)
					cfg := sim.DefaultConfig()
					cfg.MaxInstructions = 200_000
					cfg.Policy = spec
					c := NewCapture()
					cfg.Capture = c
					_, err := sim.Run(cfg, w.Build(42))
					return c.Log(), err
				},
				geoms: captured,
				bits:  []int{10, 20},
			})
		}
	}

	for i, sets := range []int{1, 3, 64} {
		for j, assoc := range []int{1, 2, 7, 16} {
			sets, assoc, seed := sets, assoc, int64(100+4*i+j)
			logs = append(logs, goldenLog{
				name: fmt.Sprintf("random/%dx%d", sets, assoc),
				build: func() (*Log, error) {
					rng := rand.New(rand.NewSource(seed))
					return randomLog(rng, 1000+rng.Intn(3000), 2*sets*assoc+rng.Intn(6*sets*assoc)), nil
				},
				geoms: [][2]int{{sets, assoc}},
				bits:  []int{10},
			})
		}
	}

	degenerate := [][2]int{{8, 4}, {1, 1}, {1024, 16}}
	allHits := &Log{}
	for i := 0; i < 64; i++ {
		allHits.Records = append(allHits.Records, Record{Block: 21, CostQ: 3, Kind: sim.AccessHit})
	}
	for _, d := range []struct {
		name string
		log  *Log
	}{
		{"empty", &Log{}},
		{"single", &Log{Records: []Record{{Block: 13, CostQ: 5, Kind: sim.AccessMiss}}}},
		{"all-hits", allHits},
	} {
		log := d.log
		logs = append(logs, goldenLog{
			name:  "degenerate/" + d.name,
			build: func() (*Log, error) { return log, nil },
			geoms: degenerate,
			bits:  []int{10},
		})
	}
	return logs
}

// goldenRows computes one log's pinned digests: Compare's %+v at every
// geometry, and learn.Train's encoded model at two seeds per table size.
func goldenRows(gl goldenLog) (map[string]string, error) {
	log, err := gl.build()
	if err != nil {
		return nil, err
	}
	rows := make(map[string]string)
	for i, g := range gl.geoms {
		sets, assoc := g[0], g[1]
		rows[fmt.Sprintf("compare/%s/%dx%d", gl.name, sets, assoc)] =
			fnvHex([]byte(fmt.Sprintf("%+v", Compare(log, sets, assoc))))
		bits := gl.bits
		if i > 0 {
			bits = bits[:1]
		}
		for _, b := range bits {
			for _, seed := range []uint64{7, 8} {
				m, err := learn.Train(log.Blocks(), learn.TrainConfig{
					Sets: sets, Assoc: assoc, TableBits: b, Seed: seed,
				})
				if err != nil {
					return nil, err
				}
				rows[fmt.Sprintf("train/%s/%dx%d/bits%d/seed%d", gl.name, sets, assoc, b, seed)] =
					fnvHex(m.Encode())
			}
		}
	}
	return rows, nil
}

// TestGoldenOracle pins the offline replays and the trainer bit for
// bit: Compare's full %+v on captured logs (four benchmarks under LRU,
// LIN(4) and SBAR, 200,000 instructions each) at the live geometry and
// three small ones, on seeded random logs with random costs and on the
// degenerate logs, and the FNV digest of the model learn.Train encodes
// from each. A change to how the replays or the trainer compute must
// leave every row untouched; a deliberate change to their results
// regenerates the table with
//
//	go test ./internal/oracle -run TestGoldenOracle -update-golden
func TestGoldenOracle(t *testing.T) {
	logs := goldenLogs()
	rows := make([]map[string]string, len(logs))
	t.Run("logs", func(t *testing.T) {
		for i, gl := range logs {
			i, gl := i, gl
			t.Run(gl.name, func(t *testing.T) {
				t.Parallel()
				r, err := goldenRows(gl)
				if err != nil {
					t.Fatalf("%s: %v", gl.name, err)
				}
				rows[i] = r
			})
		}
	})
	got := make(map[string]string)
	for _, r := range rows {
		for name, d := range r {
			got[name] = d
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenOracleFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOracleFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenOracleFile)
	if err != nil {
		t.Fatalf("read golden table: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d rows, the test computes %d", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, golden %s", name, d, want[name])
		}
	}
}
