package experiments

import (
	"mlpcache/internal/cache"
	"mlpcache/internal/core"
	"mlpcache/internal/learn"
	"mlpcache/internal/oracle"
	"mlpcache/internal/sim"
)

// LearnedHeadroomResult evaluates the learned eviction policies
// (internal/learn) against the classical baselines and the offline
// oracles on identical footing: per benchmark, the LRU run's L2 demand
// stream is captured once and every policy replays that same stream
// untimed at the live geometry — LRU, LIN(4), SBAR, Random, the bandit,
// and the trained hit-count predictor — alongside the Belady and
// cost-weighted Belady replays from the oracle-headroom experiment.
// The predictor is trained on the very capture it replays (in-sample by
// design: the question is how much of the Section 2 headroom a table of
// per-signature expected hit counts can express, not how it
// generalizes).
type LearnedHeadroomResult struct {
	Sets, Assoc int
	Seed        uint64
	Rows        []LearnedHeadroomRow
}

// LearnedHeadroomRow is one benchmark's comparison. Every column scores
// the same captured stream: misses plus summed quantized cost for the
// learned policies, miss counts for the baselines and oracles.
type LearnedHeadroomRow struct {
	Bench    string
	Accesses uint64

	LRUMiss, LINMiss, SBARMiss, RandomMiss uint64
	BanditMiss, LearnedMiss                uint64
	OPTMiss, CostOPTMiss                   uint64

	LRUCost, BanditCost, LearnedCost, CostOPTCost uint64

	// TrainedSignatures counts model table entries training populated.
	TrainedSignatures int

	// RecoveredPct is the share of the LRU→Belady miss headroom the
	// trained predictor closes on this capture: 100 when it matches
	// Belady, 0 when it matches LRU, negative when it is worse than LRU.
	RecoveredPct float64
}

// recoveredPct computes the closed share of the lru→opt headroom.
func recoveredPct(lru, learned, opt uint64) float64 {
	if lru <= opt {
		return 0
	}
	return 100 * (float64(lru) - float64(learned)) / float64(lru-opt)
}

// LearnedHeadroom runs the learned-headroom experiment over the
// runner's benchmarks (fanned out on its worker pool).
func LearnedHeadroom(r *Runner) LearnedHeadroomResult {
	l2 := sim.DefaultConfig().L2
	sets, err := l2.SetCount()
	if err != nil {
		panic(err) // DefaultConfig is validated by construction
	}
	assoc := l2.Assoc
	seed := r.Seed
	out := LearnedHeadroomResult{Sets: sets, Assoc: assoc, Seed: seed}
	out.Rows = forBenches(r, r.Names(), func(b string) LearnedHeadroomRow {
		_, log := r.RunCaptured(b, sim.PolicySpec{Kind: sim.PolicyLRU})

		lru := oracle.ReplayOnline(log, sets, assoc, cache.NewLRU())
		lin := oracle.ReplayOnline(log, sets, assoc, core.NewLIN(4))
		rnd := oracle.ReplayOnline(log, sets, assoc, cache.NewRandom(seed+1))
		sbar := oracle.ReplayHybrid(log, sets, assoc, func(mtd *cache.Cache) core.Hybrid {
			return core.NewSBAR(mtd, core.SBARConfig{
				LeaderSets: 32,
				PselBits:   6,
				Lambda:     4,
				Selector:   core.NewSimpleStatic(sets, 32),
				Threads:    1,
			})
		})
		bandit := oracle.ReplayOnline(log, sets, assoc, learn.NewBandit(sets, assoc, seed+5))

		model, err := learn.Train(log.Blocks(), learn.TrainConfig{Sets: sets, Assoc: assoc, Seed: seed + 7})
		if err != nil {
			panic(err) // live geometry is valid by construction
		}
		pred, err := learn.NewPredictor(model, sets, assoc)
		if err != nil {
			panic(err)
		}
		learned := oracle.ReplayOnline(log, sets, assoc, pred)

		cmp := oracle.Compare(log, sets, assoc)
		return LearnedHeadroomRow{
			Bench:    b,
			Accesses: log.Accesses(),

			LRUMiss:     lru.Misses,
			LINMiss:     lin.Misses,
			SBARMiss:    sbar.Misses,
			RandomMiss:  rnd.Misses,
			BanditMiss:  bandit.Misses,
			LearnedMiss: learned.Misses,
			OPTMiss:     cmp.OPT.Misses,
			CostOPTMiss: cmp.CostOPT.Misses,

			LRUCost:     lru.CostQSum,
			BanditCost:  bandit.CostQSum,
			LearnedCost: learned.CostQSum,
			CostOPTCost: cmp.CostOPT.CostQSum,

			TrainedSignatures: model.Trained(),
			RecoveredPct:      recoveredPct(lru.Misses, learned.Misses, cmp.OPT.Misses),
		}
	})
	return out
}

// table builds the per-benchmark comparison table.
func (f LearnedHeadroomResult) table() *table {
	t := newTable("Learned eviction vs baselines and oracles on captured LRU streams",
		"bench", "accesses",
		"miss lru", "miss lin", "miss sbar", "miss rand", "miss bandit", "miss learned", "miss opt", "miss copt",
		"cost bandit", "cost learned",
		"trained sigs", "recovered")
	for _, row := range f.Rows {
		t.rowf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s",
			row.Bench, row.Accesses,
			row.LRUMiss, row.LINMiss, row.SBARMiss, row.RandomMiss,
			row.BanditMiss, row.LearnedMiss, row.OPTMiss, row.CostOPTMiss,
			row.BanditCost, row.LearnedCost,
			row.TrainedSignatures, pct(row.RecoveredPct))
	}
	t.note("replay geometry %dx%d, seed %d; every column replays the same captured LRU demand stream; recovered = share of the lru→opt miss headroom the trained predictor closes (in-sample)",
		f.Sets, f.Assoc, f.Seed)
	return t
}
