package learn

import (
	"mlpcache/internal/cache"
	"mlpcache/internal/simerr"
)

// The bandit's arms: five eviction experts spanning the regimes the
// paper's workloads exhibit (recency-friendly, thrashing, frequency-
// skewed, cost-structured, and adversarial-to-determinism patterns
// where randomized eviction wins).
const (
	armRecency   = iota // evict the LRU line
	armProtect          // evict the MRU line (thrash/scan resistance)
	armFrequency        // evict the fewest-hits-since-fill line
	armCost             // evict the cheapest-to-refetch line (lowest cost_q)
	armScatter          // evict a uniform-random line from the LRU half
	numArms
)

const (
	// banditSwitchMargin is the hysteresis on arm changes: a challenger
	// must beat the incumbent's value estimate by this much before the
	// played arm switches. Every switch rebuilds the sets' working
	// structure, so chasing small estimate differences costs more than
	// it wins.
	banditSwitchMargin = 0.01
	// banditConfirmReward is the (small) reward for an arm whose
	// shadow kept the block alive through a main-directory access — or,
	// on a miss, proof that losing the block cost nothing.
	banditConfirmReward = 0.05
	// banditSampleFactor picks every Nth set for shadow evaluation:
	// each arm runs a private shadow tag directory over the sampled
	// sets, so arms are judged on the cache state their own decisions
	// produce — judging them on the shared directory's state conflates
	// every arm's behaviour with the incumbent's.
	banditSampleFactor = 4
)

// shadowArm drives one arm's private shadow directory: the same victim
// rule the bandit would apply, evolving under its own decisions.
type shadowArm struct {
	cache.Base
	mode    int
	assoc   int
	hits    []uint32 // per-way hits since fill (frequency signal)
	rankBuf []int
	state   uint64 // scatter's xorshift64 stream
}

func (p *shadowArm) Name() string { return "shadow" }

func (p *shadowArm) Victim(set cache.SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	p.rankBuf = set.Ranks(p.rankBuf)
	return armVictim(p.mode, set, p.hits[set.Index*p.assoc:(set.Index+1)*p.assoc], p.rankBuf, &p.state)
}

func (p *shadowArm) Touched(set cache.SetView, w int) {
	h := p.hits[set.Index*p.assoc+w : set.Index*p.assoc+w+1]
	if h[0] != ^uint32(0) {
		h[0]++
	}
}

func (p *shadowArm) Filled(set cache.SetView, w int) {
	p.hits[set.Index*p.assoc+w] = 0
}

// armVictim applies one arm's eviction rule to a full set. hits is the
// set's per-way hit-since-fill slice, rankBuf its recency ranks (rank 0
// = LRU), and state the caller's xorshift64 stream for the scatter arm.
func armVictim(mode int, set cache.SetView, hits []uint32, rankBuf []int, state *uint64) int {
	ways := set.Ways()
	switch mode {
	case armRecency, armProtect:
		want := 0
		if mode == armProtect {
			want = ways - 1
		}
		for w := 0; w < ways; w++ {
			if rankBuf[w] == want {
				return w
			}
		}
		return 0
	case armFrequency:
		best := 0
		for w := 1; w < ways; w++ {
			if hits[w] < hits[best] || (hits[w] == hits[best] && rankBuf[w] < rankBuf[best]) {
				best = w
			}
		}
		return best
	case armCost:
		best := 0
		bestCost := set.CostQ(0)
		for w := 1; w < ways; w++ {
			c := set.CostQ(w)
			if c < bestCost || (c == bestCost && rankBuf[w] < rankBuf[best]) {
				best, bestCost = w, c
			}
		}
		return best
	default: // armScatter
		half := ways / 2
		if half == 0 {
			half = 1
		}
		*state ^= *state << 13
		*state ^= *state >> 7
		*state ^= *state << 17
		pick := int(*state % uint64(half))
		for w := 0; w < ways; w++ {
			if rankBuf[w] == pick {
				return w
			}
		}
		return 0
	}
}

// Bandit treats per-set way selection as a multi-armed bandit over five
// eviction experts with delayed, sampled feedback. Every banditSampleFactor-th
// set is additionally tracked in five private shadow tag directories,
// one per arm, each evolving under that arm's own eviction rule.
// Feedback is credited at the ISSUE's two moments: an access that
// misses the main directory but hits an arm's shadow is that victim's
// would-have-hit time — the arms that lost the block are penalized by
// the miss's quantized mlp-cost (expensive misses punish harder), the
// arms that kept it are rewarded; an access missing every shadow is the
// eviction-confirmed time — no arm would have kept the block, so the
// penalty-free confirmation flows to all. The victim path greedily
// plays the arm with the best running-mean outcome (with switch
// hysteresis) and is allocation-free on the shared Ranks scratch; the
// shadow directories are fully preallocated at construction.
type Bandit struct {
	cache.Base
	// weights holds the per-arm running-mean outcome estimates (reward
	// positive, penalty negative); judged counts in judged. A running
	// mean rather than an EWMA: every arm is judged on every sampled
	// access, so the means are directly comparable, and they converge
	// instead of chasing workload phases — the target is the arm that
	// is best over the whole run. Exported via Stats as the arm
	// weights.
	weights [numArms]float64
	judged  [numArms]uint64
	arms    [numArms]uint64
	shadows [numArms]*cache.Cache
	// hits counts per-way hits since fill in the main directory (the
	// frequency arm's signal), sets*assoc contiguous.
	hits       []uint32
	sets       int
	assoc      int
	shadowSets int
	rankBuf    []int
	state      uint64 // scatter's xorshift64 stream for main-directory picks
	current    int    // the incumbent arm (hysteresis)
	stats      Stats
}

// NewBandit builds the bandit for a sets × assoc cache. The seed fixes
// the scatter arm's sampling streams, so a run is a pure function of
// its inputs.
func NewBandit(sets, assoc int, seed uint64) *Bandit {
	if sets < 1 || assoc < 1 {
		panic(simerr.New(simerr.ErrBadConfig, "learn: bandit geometry %d sets × %d ways is invalid", sets, assoc))
	}
	shadowSets := sets / banditSampleFactor
	if shadowSets == 0 {
		shadowSets = 1
	}
	b := &Bandit{
		hits:       make([]uint32, sets*assoc),
		sets:       sets,
		assoc:      assoc,
		shadowSets: shadowSets,
		rankBuf:    make([]int, 0, assoc),
		state:      seed | 1,
	}
	for a := 0; a < numArms; a++ {
		p := &shadowArm{
			mode:    a,
			assoc:   assoc,
			hits:    make([]uint32, shadowSets*assoc),
			rankBuf: make([]int, 0, assoc),
			state:   (seed + uint64(a)*0x9e3779b97f4a7c15) | 1,
		}
		b.shadows[a] = cache.New(cache.Config{Sets: shadowSets, Assoc: assoc, BlockBytes: 1}, p)
	}
	return b
}

// Name implements cache.Policy.
func (b *Bandit) Name() string { return "bandit" }

// pickArm returns the incumbent arm unless a challenger's value
// estimate beats it by the switch margin. Ties go to the lowest arm
// index, and the incumbent starts as recency, so a fresh bandit starts
// from the LRU prior.
func (b *Bandit) pickArm() int {
	best := 0
	for a := 1; a < numArms; a++ {
		if b.weights[a] > b.weights[best] {
			best = a
		}
	}
	if best != b.current && b.weights[best] > b.weights[b.current]+banditSwitchMargin {
		b.current = best
	}
	return b.current
}

// sampled reports whether the set feeds the shadow directories, and the
// shadow set it maps to.
func (b *Bandit) sampled(set int) (int, bool) {
	if set%banditSampleFactor != 0 {
		return 0, false
	}
	s := set / banditSampleFactor
	if s >= b.shadowSets {
		return 0, false
	}
	return s, true
}

// observe drives the five shadow directories with one sampled access
// and settles each arm's judgement: a shadow hit means the arm kept the
// block (reward), a shadow miss means its eviction schedule lost it
// (penalty scaled by the access's quantized mlp-cost). mtdMiss records
// whether the main directory itself missed, for the would-have-hit
// accounting.
func (b *Bandit) observe(shadowSet int, tag uint64, costQ uint8, mtdMiss bool) {
	block := tag*uint64(b.shadowSets) + uint64(shadowSet)
	anyHit := false
	for a := 0; a < numArms; a++ {
		outcome := banditConfirmReward
		if b.shadows[a].Probe(block, false) {
			anyHit = true
		} else {
			b.shadows[a].Fill(block, costQ, false)
			outcome = -float64(1+costQ) / 8
		}
		b.judged[a]++
		b.weights[a] += (outcome - b.weights[a]) / float64(b.judged[a])
	}
	if !mtdMiss {
		return
	}
	if anyHit {
		b.stats.GhostHits++
	} else {
		b.stats.Confirmed++
	}
}

// Victim implements cache.Policy: play the best arm's eviction rule.
func (b *Bandit) Victim(set cache.SetView) int {
	if w := set.FreeWay(); w >= 0 {
		return w
	}
	b.rankBuf = set.Ranks(b.rankBuf)
	arm := b.pickArm()
	w := armVictim(arm, set, b.hits[set.Index*b.assoc:(set.Index+1)*b.assoc], b.rankBuf, &b.state)
	b.stats.Victims++
	b.arms[arm]++
	return w
}

// Touched implements cache.Policy: count the hit for the frequency arm
// and judge the arms on sampled sets — a shadow that already lost this
// block would have turned the hit into a miss.
func (b *Bandit) Touched(set cache.SetView, w int) {
	idx := set.Index*b.assoc + w
	if b.hits[idx] != ^uint32(0) {
		b.hits[idx]++
	}
	if s, ok := b.sampled(set.Index); ok {
		line := set.Line(w)
		b.observe(s, line.Tag, line.CostQ, false)
	}
}

// Filled implements cache.Policy: reset the way's hit counter and, on
// sampled sets, judge the arms at the would-have-hit moment — the main
// directory missed, and any shadow still holding the block proves its
// arm's schedule would have hit.
func (b *Bandit) Filled(set cache.SetView, w int) {
	b.hits[set.Index*b.assoc+w] = 0
	if s, ok := b.sampled(set.Index); ok {
		line := set.Line(w)
		b.observe(s, line.Tag, line.CostQ, true)
	}
}

// Stats returns the run's bandit accounting, value estimates included.
func (b *Bandit) Stats() Stats {
	st := b.stats
	st.ArmRecency = b.arms[armRecency]
	st.ArmProtect = b.arms[armProtect]
	st.ArmFrequency = b.arms[armFrequency]
	st.ArmCost = b.arms[armCost]
	st.ArmScatter = b.arms[armScatter]
	st.WeightRecency = b.weights[armRecency]
	st.WeightProtect = b.weights[armProtect]
	st.WeightFrequency = b.weights[armFrequency]
	st.WeightCost = b.weights[armCost]
	st.WeightScatter = b.weights[armScatter]
	return st
}
