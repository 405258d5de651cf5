package learn

import (
	"mlpcache/internal/cache"
	"mlpcache/internal/simerr"
)

// TrainConfig parameterizes offline training.
type TrainConfig struct {
	// Sets and Assoc give the target cache geometry (the default
	// indexer's split: set = block mod Sets).
	Sets, Assoc int
	// TableBits sizes the signature table (DefaultTableBits when 0).
	TableBits int
	// Seed salts the signature hash; it is stored in the model so
	// online lookups hash identically. Training is deterministic: the
	// same blocks and config produce a byte-identical model file.
	Seed uint64
}

// trainAcc tallies one signature's Belady hits and misses.
type trainAcc struct {
	hits, misses uint64
}

// Train replays the block stream under Belady's optimal policy
// (cache.SimulateOPT) and tabulates, per block signature, the mean
// number of hits one residency generation earns: a generation opens
// when Belady fills the block, accrues its hits, and closes when Belady
// evicts it (or the stream ends). Every Belady miss opens exactly one
// generation and every hit lands in the block's open one, so the mean
// is the signature's Belady hits over its Belady misses. The table
// entry is that mean in fixed point (HitScale) — the quantity the
// online Predictor spends down as hits arrive.
func Train(blocks []uint64, cfg TrainConfig) (*Model, error) {
	if cfg.Sets < 1 || cfg.Assoc < 1 {
		return nil, simerr.New(simerr.ErrBadConfig, "learn: training geometry %d sets × %d ways is invalid", cfg.Sets, cfg.Assoc)
	}
	tableBits := cfg.TableBits
	if tableBits == 0 {
		tableBits = DefaultTableBits
	}
	if tableBits < 1 || tableBits > MaxTableBits {
		return nil, simerr.New(simerr.ErrBadConfig, "learn: tableBits must be in [1,%d], got %d", MaxTableBits, tableBits)
	}
	model := NewModel(cfg.Sets, cfg.Assoc, tableBits, cfg.Seed)

	acc := make(map[uint32]*trainAcc)
	for _, a := range cache.SimulateOPT(blocks, cfg.Sets, cfg.Assoc).Trace {
		sig := model.signature(a.Block)
		t := acc[sig]
		if t == nil {
			t = &trainAcc{}
			acc[sig] = t
		}
		if a.Hit {
			t.hits++
		} else {
			t.misses++
			model.Generations++
		}
	}

	for sig, t := range acc {
		// Fixed-point rounded mean, capped below the Untrained mark.
		e := (t.hits*HitScale + t.misses/2) / t.misses
		if e >= Untrained {
			e = Untrained - 1
		}
		model.Table[sig] = uint8(e)
	}
	return model, nil
}
