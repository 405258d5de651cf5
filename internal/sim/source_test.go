package sim

import (
	"reflect"
	"testing"

	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// nextOnly is a Next-only source shaped like the benchmark ledger's
// recorder: it refills a private buffer one Next call at a time, never
// past the run's budget, and serves Next from that buffer. Having no
// NextBatch, it reaches fetch through trace.ReadBatch's fallback.
type nextOnly struct {
	src  trace.Source
	left uint64
	buf  []trace.Instr
	pos  int
}

func (g *nextOnly) Next() (trace.Instr, bool) {
	if g.pos == len(g.buf) {
		g.buf, g.pos = g.buf[:0], 0
		for uint64(len(g.buf)) < min(4096, g.left) {
			in, ok := g.src.Next()
			if !ok {
				break
			}
			g.buf = append(g.buf, in)
		}
		g.left -= uint64(len(g.buf))
		if len(g.buf) == 0 {
			return trace.Instr{}, false
		}
	}
	in := g.buf[g.pos]
	g.pos++
	return in, true
}

// TestNextOnlySourcesMatchBatchedSources runs models of every generator
// and interleaver kind twice, on their own sources (batched fetch) and
// wrapped Next-only (the fallback), single-core and 4-core: the results
// must be identical.
func TestNextOnlySourcesMatchBatchedSources(t *testing.T) {
	models := []string{"mcf", "ammp", "bzip2", "art"} // Mix, Phases, TwoPass, nested Mix
	policies := []PolicySpec{
		{Kind: PolicyLRU},
		{Kind: PolicyLIN, Lambda: 4},
		{Kind: PolicySBAR, Lambda: 4, LeaderSets: 32},
	}
	build := func(name string, seed, budget uint64, wrap bool) trace.Source {
		spec, _ := workload.ByName(name)
		if wrap {
			return &nextOnly{src: spec.Build(seed), left: budget}
		}
		return spec.Build(seed)
	}
	for _, p := range policies {
		for _, name := range models {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig()
				cfg.MaxInstructions = 50_000
				cfg.Policy = p
				batched, err := Run(cfg, build(name, 42, cfg.MaxInstructions, false))
				if err != nil {
					t.Fatal(err)
				}
				wrapped, err := Run(cfg, build(name, 42, cfg.MaxInstructions, true))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batched, wrapped) {
					t.Fatalf("Next-only sources diverge from batched ones:\nbatched: %+v\nnext-only: %+v", batched, wrapped)
				}
			})
		}
		t.Run("4-core/"+p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.MaxInstructions = 25_000
			cfg.Policy = p
			srcs := func(wrap bool) []trace.Source {
				out := make([]trace.Source, len(models))
				for i, name := range models {
					out[i] = build(name, 42+uint64(i), cfg.MaxInstructions, wrap)
				}
				return out
			}
			batched, err := RunMulti(cfg, srcs(false)...)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := RunMulti(cfg, srcs(true)...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batched, wrapped) {
				t.Fatalf("Next-only sources diverge from batched ones:\nbatched: %+v\nnext-only: %+v", batched, wrapped)
			}
		})
	}
}
