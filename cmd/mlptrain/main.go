// Command mlptrain closes the capture → train → evaluate loop of the
// learned eviction subsystem (docs/LEARNED.md): it runs one benchmark
// under LRU with an oracle capture attached, replays the captured L2
// demand stream per set under Belady's optimal policy, tabulates the
// expected hit count per block signature, and writes the result as a
// versioned mlpcache.model/v1 file that `mlpsim -policy learned -model`
// and the learned-headroom experiment load. Training is deterministic:
// the same benchmark, instruction budget and seeds produce a
// byte-identical model file.
//
// With -inspect the command instead decodes an existing model file and
// prints its header and table statistics; a corrupt or truncated file
// fails with one line on stderr and exit 1, like every binary codec in
// the repo (docs/ROBUSTNESS.md).
//
// Examples:
//
//	mlptrain -bench mcf -n 3000000 -o mcf.model
//	mlptrain -bench art -table-bits 18 -train-seed 7 -o art.model
//	mlptrain -inspect mcf.model
package main

import (
	"flag"
	"fmt"
	"os"

	"mlpcache/internal/learn"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
	"mlpcache/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "mcf", "benchmark model whose captured stream trains the table")
		n         = flag.Uint64("n", 3_000_000, "instructions to simulate for the capture")
		seed      = flag.Uint64("seed", 42, "workload seed for the capture run")
		trainSeed = flag.Uint64("train-seed", 49, "signature-hash salt stored in the model")
		tableBits = flag.Int("table-bits", learn.DefaultTableBits, "log2 of the signature-table size")
		out       = flag.String("o", "", "output model file (required unless -inspect)")
		inspect   = flag.String("inspect", "", "decode an existing model file and print its statistics")
	)
	flag.Parse()

	fatal := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mlptrain: "+format+"\n", args...)
		os.Exit(code)
	}

	if *inspect != "" {
		m, err := learn.ReadModelFile(*inspect)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("model       %s (%d bytes)\n", *inspect, len(m.Encode()))
		fmt.Printf("geometry    %d sets x %d ways\n", m.Sets, m.Assoc)
		fmt.Printf("table       %d entries (%d bits), seed %d\n", len(m.Table), m.TableBits, m.Seed)
		fmt.Printf("training    %d Belady generations, %d trained signatures (%.1f%% of table)\n",
			m.Generations, m.Trained(), 100*float64(m.Trained())/float64(len(m.Table)))
		return
	}
	if *out == "" {
		fatal(2, "-o is required (or use -inspect to read an existing model)")
	}

	spec, ok := workload.ByName(*bench)
	if !ok {
		fatal(2, "unknown benchmark %q (try mlpsim -list)", *bench)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = *n
	cfg.Policy = sim.PolicySpec{Kind: sim.PolicyLRU}
	capture := oracle.NewCapture()
	cfg.Capture = capture
	if _, err := sim.Run(cfg, spec.Build(*seed)); err != nil {
		fatal(1, "%v", err)
	}
	log := capture.Log()

	sets, err := cfg.L2.SetCount()
	if err != nil {
		fatal(1, "%v", err)
	}
	model, err := learn.Train(log.Blocks(), learn.TrainConfig{
		Sets:      sets,
		Assoc:     cfg.L2.Assoc,
		TableBits: *tableBits,
		Seed:      *trainSeed,
	})
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := model.WriteFile(*out); err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("captured    %s: %d L2 demand accesses (%d misses) over %d instructions\n",
		spec.Name, log.Accesses(), log.LiveMisses, *n)
	fmt.Printf("trained     %d Belady generations -> %d trained signatures (%.1f%% of %d entries)\n",
		model.Generations, model.Trained(),
		100*float64(model.Trained())/float64(len(model.Table)), len(model.Table))
	fmt.Printf("model       %s (%d bytes, seed %d, geometry %dx%d)\n",
		*out, len(model.Encode()), model.Seed, model.Sets, model.Assoc)
}
