package experiments

import (
	"fmt"
	"reflect"

	"mlpcache/internal/sim"
)

// Sensitivity studies in the spirit of the paper's Section 7 (the
// provided text cuts off inside it): how LIN's gains and losses, and
// SBAR's protection, respond to the machine parameters that shape MLP —
// memory latency, cache capacity, MSHR size, and window size. Each sweep
// runs a LIN-winner (mcf) and a LIN-loser (parser) so both sides of the
// mechanism stay visible.

// SensitivityPoint is one (parameter value × benchmark) measurement.
type SensitivityPoint struct {
	Param   string
	Value   string
	Bench   string
	LRUIPC  float64
	LINPct  float64 // LIN IPC delta vs LRU, percent
	SBARPct float64 // SBAR IPC delta vs LRU, percent
}

// SensitivityResult is one parameter sweep.
type SensitivityResult struct {
	Param  string
	Points []SensitivityPoint
}

// sensBenches are the representative benchmarks each sweep runs.
var sensBenches = []string{"mcf", "parser"}

// A knob is one Table 2 machine parameter the sweeps vary.
type knob struct {
	name   string   // the sweep's parameter, as tables and run labels print it
	format string   // prints a value with its unit
	values []uint64 // the values its sweep visits
	set    func(*sim.Config, uint64)
}

// value prints v in the knob's unit ("512KB").
func (k knob) value(v uint64) string { return fmt.Sprintf(k.format, v) }

// Knob indices, into knobs and machine.
const (
	memLatency = iota
	l2Size
	mshrEntries
	windowSize
)

var knobs = [...]knob{
	// sens-mem sweeps the DRAM access latency: longer memory raises the
	// price of an isolated miss linearly, so LIN's wins and losses both
	// scale with it.
	memLatency: {"memory latency", "%d cycles", []uint64{200, 400, 800}, func(c *sim.Config, v uint64) { c.DRAM.AccessCycles = v }},
	// sens-cache sweeps the L2 capacity. A larger cache softens thrash
	// (less for LIN to win) and dilutes pollution (less for LIN to
	// lose); a smaller one sharpens both.
	l2Size: {"L2 size", "%dKB", []uint64{512, 1024, 2048}, func(c *sim.Config, v uint64) { c.L2.SizeBytes = v * 1024 }},
	// sens-mshr sweeps the miss-file size, which caps achievable MLP:
	// with few MSHRs even "parallel" misses serialize, compressing the
	// cost non-uniformity the whole mechanism feeds on.
	mshrEntries: {"MSHR entries", "%d", []uint64{8, 32, 64}, func(c *sim.Config, v uint64) { c.MSHR.Entries = int(v) }},
	// sens-window sweeps the instruction window, the other MLP limiter:
	// a small window cannot overlap misses, so everything drifts toward
	// isolated cost.
	windowSize: {"window size", "%d", []uint64{32, 128, 256}, func(c *sim.Config, v uint64) { c.CPU.ROBEntries = int(v) }},
}

// A machine holds a value per knob; zero keeps the knob's value on the
// paper's Table 2 machine (sim.DefaultConfig).
type machine [len(knobs)]uint64

// resolve drops every value that leaves sim.DefaultConfig unchanged, so
// a sweep's Table 2 point and an unswept run describe one simulation.
func (m machine) resolve() machine {
	def := sim.DefaultConfig()
	for i, k := range knobs {
		cfg := def
		k.set(&cfg, m[i])
		if reflect.DeepEqual(cfg, def) {
			m[i] = 0
		}
	}
	return m
}

// sweep runs sensBenches under LRU, LIN(4) and SBAR at each of a knob's
// values, the rest of the machine at Table 2.
func sweep(r *Runner, k int) SensitivityResult {
	res := SensitivityResult{Param: knobs[k].name}
	for _, v := range knobs[k].values {
		var m machine
		m[k] = v
		res.Points = append(res.Points, forBenches(r, sensBenches, func(b string) SensitivityPoint {
			lru, lin, sbar := r.compare(runSpec{Mix: b, Seed: r.Seed, Machine: m})
			return SensitivityPoint{
				Param: res.Param, Value: knobs[k].value(v), Bench: b,
				LRUIPC: lru.IPC, LINPct: lin, SBARPct: sbar,
			}
		})...)
	}
	return res
}

// table builds the sweep table.
func (s SensitivityResult) table() *table {
	t := newTable(fmt.Sprintf("Sensitivity: %s (IPC delta vs LRU at each point)", s.Param),
		s.Param, "bench", "LRU IPC", "LIN", "SBAR")
	for _, p := range s.Points {
		t.rowf("%s\t%s\t%.4f\t%s\t%s", p.Value, p.Bench, p.LRUIPC, pct(p.LINPct), pct(p.SBARPct))
	}
	t.note("mcf represents LIN's win side, parser its loss side; SBAR should track max(LIN, LRU) throughout")
	return t
}
