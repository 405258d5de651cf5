package learn

import (
	"mlpcache/internal/cache"
	"mlpcache/internal/simerr"
)

type predSet struct {
	// pred caches each way's model prediction at fill time (fixed-point
	// HitScale expected hits; Untrained when the signature was never
	// trained); hits counts the way's probe hits since fill.
	pred []uint8
	hits []uint8
}

// Predictor is the EHC-style learned policy: an offline-trained table
// (Model) predicts, per block signature, how many hits a Belady
// schedule extracts from one residency generation. Online, each fill
// caches the incoming block's prediction and the victim path evicts the
// line with the least remaining expected value — prediction minus hits
// already received — so lines that have consumed their expectation go
// first and lines still owed hits are protected. Untrained signatures
// score a neutral zero, which makes a fully-untrained model behave
// exactly like LRU (every score ties; ties break toward the LRU rank).
type Predictor struct {
	cache.Base
	model   *Model
	sets    []predSet
	rankBuf []int
	stats   Stats
}

// NewPredictor builds the online policy for a sets × assoc cache. The
// model must have been trained for the same geometry: signatures hash
// block addresses, and the set/tag split differs across geometries.
func NewPredictor(model *Model, sets, assoc int) (*Predictor, error) {
	if model == nil {
		return nil, simerr.New(simerr.ErrBadConfig, "learn: predictor needs a model (train one with mlptrain, or leave -model unset for the untrained default)")
	}
	if int(model.Sets) != sets || int(model.Assoc) != assoc {
		return nil, simerr.New(simerr.ErrBadConfig,
			"learn: model trained for %d sets × %d ways cannot drive a %d × %d cache",
			model.Sets, model.Assoc, sets, assoc)
	}
	p := &Predictor{model: model, sets: make([]predSet, sets)}
	pred := make([]uint8, sets*assoc)
	hits := make([]uint8, sets*assoc)
	for s := range p.sets {
		p.sets[s].pred = pred[s*assoc : (s+1)*assoc : (s+1)*assoc]
		p.sets[s].hits = hits[s*assoc : (s+1)*assoc : (s+1)*assoc]
	}
	return p, nil
}

// Name implements cache.Policy.
func (p *Predictor) Name() string { return "learned" }

// Model returns the table driving the predictor.
func (p *Predictor) Model() *Model { return p.model }

// Victim implements cache.Policy: evict the valid line with the lowest
// remaining expected value, ties toward the LRU rank.
func (p *Predictor) Victim(set cache.SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	p.rankBuf = set.Ranks(p.rankBuf)
	s := &p.sets[set.Index]
	best := -1
	bestScore, bestRank := 0, 0
	for w := range p.rankBuf {
		// Remaining expected value: prediction minus hits already
		// received. An untrained signature scores a neutral zero — its
		// hits say nothing about an expectation that was never set — so
		// a fully-untrained model ties everywhere and decays to LRU.
		score := 0
		if s.pred[w] != Untrained {
			score = int(s.pred[w]) - HitScale*int(s.hits[w])
		}
		r := p.rankBuf[w]
		if best < 0 || score < bestScore || (score == bestScore && r < bestRank) {
			best, bestScore, bestRank = w, score, r
		}
	}
	p.stats.Victims++
	return best
}

// Touched implements cache.Policy: count the hit against the way's
// remaining expectation.
func (p *Predictor) Touched(set cache.SetView, w int) {
	s := &p.sets[set.Index]
	if s.hits[w] != 0xFF {
		s.hits[w]++
	}
}

// Filled implements cache.Policy: look the incoming block's signature
// up in the model and open a fresh generation for the way.
func (p *Predictor) Filled(set cache.SetView, w int) {
	s := &p.sets[set.Index]
	block := set.Line(w).Tag*uint64(p.model.Sets) + uint64(set.Index)
	e := p.model.Table[p.model.signature(block)]
	s.pred[w] = e
	s.hits[w] = 0
	if e == Untrained {
		p.stats.UntrainedFills++
	} else {
		p.stats.TrainedFills++
	}
}

// Stats returns the run's predictor accounting.
func (p *Predictor) Stats() Stats { return p.stats }
