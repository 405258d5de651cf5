package learn

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"mlpcache/internal/cache"
	"mlpcache/internal/simerr"
)

// replay drives a standalone tag directory with a block stream under the
// given policy and returns the miss count — the untimed replay loop the
// oracle package uses, reduced to what the policy tests need.
func replay(blocks []uint64, sets, assoc int, p cache.Policy) uint64 {
	c := cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, p)
	var misses uint64
	for _, b := range blocks {
		if c.Probe(b, false) {
			continue
		}
		misses++
		c.Fill(b, uint8(b%8), false)
	}
	return misses
}

// TestModelRoundTrip encodes a trained-looking model and decodes it
// back, through bytes and through the file helpers.
func TestModelRoundTrip(t *testing.T) {
	m := NewModel(64, 8, 10, 0xfeed)
	m.Generations = 123
	for i := 0; i < len(m.Table); i += 7 {
		m.Table[i] = uint8(i % int(Untrained))
	}
	data := m.Encode()
	got, err := DecodeModel(data)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if got.TableBits != m.TableBits || got.Sets != m.Sets || got.Assoc != m.Assoc ||
		got.Seed != m.Seed || got.Generations != m.Generations || !bytes.Equal(got.Table, m.Table) {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if re := got.Encode(); !bytes.Equal(re, data) {
		t.Fatalf("re-encode is not byte-identical (%d vs %d bytes)", len(re), len(data))
	}

	path := filepath.Join(t.TempDir(), "m.model")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Encode(), data) {
		t.Fatal("file round trip is not byte-identical")
	}
}

// TestModelDecodeRejectsCorruption walks the codec's failure modes; each
// must surface a wrapped simerr.ErrCorruptTrace, never a panic.
func TestModelDecodeRejectsCorruption(t *testing.T) {
	valid := NewModel(16, 4, 6, 1).Encode()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": valid[:len(valid)/2],
		"magic":     append([]byte("XLPM\x01"), valid[5:]...),
		"tableBits": func() []byte { b := bytes.Clone(valid); b[5] = MaxTableBits + 1; return b }(),
		"geometry":  func() []byte { b := bytes.Clone(valid); b[8], b[9], b[10], b[11] = 0, 0, 0, 0; return b }(),
		"crc":       func() []byte { b := bytes.Clone(valid); b[len(b)-1] ^= 0xff; return b }(),
		"trailing":  append(bytes.Clone(valid), 0),
	}
	for name, data := range cases {
		if _, err := DecodeModel(data); !errors.Is(err, simerr.ErrCorruptTrace) {
			t.Errorf("%s: want ErrCorruptTrace, got %v", name, err)
		}
	}
	if _, err := ReadModelFile(filepath.Join(t.TempDir(), "absent.model")); !errors.Is(err, simerr.ErrCorruptTrace) {
		t.Errorf("missing file: want ErrCorruptTrace, got %v", err)
	}
}

// TestTrainDeterministic is the acceptance criterion: the same capture
// and seed must produce a byte-identical model file.
func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	blocks := make([]uint64, 5000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(400))
		rng.Intn(8) // each access draws a cost as well, which Train does not read
	}
	cfg := TrainConfig{Sets: 8, Assoc: 4, TableBits: 12, Seed: 77}
	a, err := Train(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("same blocks + seed produced different model bytes")
	}
	if a.Generations == 0 || a.Trained() == 0 {
		t.Fatalf("training closed %d generations, trained %d signatures; want both > 0",
			a.Generations, a.Trained())
	}
	// A different seed salts the signature hash: same knowledge, other
	// table layout.
	other, err := Train(blocks, TrainConfig{Sets: 8, Assoc: 4, TableBits: 12, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Encode(), other.Encode()) {
		t.Fatal("different seeds produced identical model bytes")
	}
}

// TestTrainMeanHits checks the tabulated value on a hand-built stream:
// one set, two ways, block 0 earns exactly three hits per generation.
func TestTrainMeanHits(t *testing.T) {
	var blocks []uint64
	for g := 0; g < 4; g++ {
		a, b := uint64(100+2*g), uint64(101+2*g)
		blocks = append(blocks,
			0, 0, 0, 0,
			// Conflict blocks with nearby reuse: when b arrives, block
			// 0's next use (the following generation) is the furthest,
			// so Belady evicts it and closes the generation at 3 hits.
			a, b, a, b,
		)
	}
	m, err := Train(blocks, TrainConfig{Sets: 1, Assoc: 2, TableBits: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Lookup(0), uint8(3*HitScale); got != want {
		t.Fatalf("block 0 entry %d, want %d (3 hits per generation)", got, want)
	}

	// Empty training input: a valid, fully-untrained model.
	empty, err := Train(nil, TrainConfig{Sets: 1, Assoc: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Generations != 0 || empty.Trained() != 0 {
		t.Fatalf("empty training: %d generations, %d trained entries", empty.Generations, empty.Trained())
	}
}

// TestUntrainedPredictorMatchesLRU: with every signature untrained, all
// victim scores tie and the tie-break is the LRU rank — the predictor
// must shadow cache.NewLRU access for access.
func TestUntrainedPredictorMatchesLRU(t *testing.T) {
	const sets, assoc = 8, 4
	rng := rand.New(rand.NewSource(3))
	p, err := NewPredictor(NewModel(sets, assoc, 10, 1), sets, assoc)
	if err != nil {
		t.Fatal(err)
	}
	lru := cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, cache.NewLRU())
	pred := cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, p)
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(6 * sets * assoc))
		hitLRU := lru.Probe(b, false)
		hitPred := pred.Probe(b, false)
		if hitLRU != hitPred {
			t.Fatalf("access %d (block %d): LRU hit=%v, untrained predictor hit=%v", i, b, hitLRU, hitPred)
		}
		if !hitLRU {
			lru.Fill(b, 0, false)
			pred.Fill(b, 0, false)
		}
	}
	st := p.Stats()
	if st.TrainedFills != 0 || st.UntrainedFills == 0 {
		t.Fatalf("untrained model saw %d trained / %d untrained fills", st.TrainedFills, st.UntrainedFills)
	}
}

// TestPredictorRejectsGeometryMismatch: a model trained for one
// geometry must not silently drive another (signatures would alias).
func TestPredictorRejectsGeometryMismatch(t *testing.T) {
	if _, err := NewPredictor(NewModel(16, 4, 8, 1), 32, 4); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for sets mismatch, got %v", err)
	}
	if _, err := NewPredictor(nil, 16, 4); !errors.Is(err, simerr.ErrBadConfig) {
		t.Fatalf("want ErrBadConfig for nil model, got %v", err)
	}
}

// cyclicStream builds the classic LRU-pathological loop: every set
// cycles through assoc+1 resident blocks, so strict LRU misses every
// access after warmup while any protect/scatter schedule keeps most of
// the working set.
func cyclicStream(sets, assoc, iters int) []uint64 {
	var blocks []uint64
	for i := 0; i < iters; i++ {
		for k := 0; k <= assoc; k++ {
			for s := 0; s < sets; s++ {
				blocks = append(blocks, uint64(k*sets+s))
			}
		}
	}
	return blocks
}

// TestBanditBeatsLRUOnThrash: on the cyclic thrash stream the bandit's
// shadow directories must discover a non-recency arm and land well
// under LRU's (total) miss count.
func TestBanditBeatsLRUOnThrash(t *testing.T) {
	const sets, assoc = 16, 8
	blocks := cyclicStream(sets, assoc, 200)
	lru := replay(blocks, sets, assoc, cache.NewLRU())
	b := NewBandit(sets, assoc, 11)
	bandit := replay(blocks, sets, assoc, b)
	if bandit >= lru {
		t.Fatalf("bandit %d misses, LRU %d — no arm learned on a thrash loop", bandit, lru)
	}
	st := b.Stats()
	if sum := st.ArmRecency + st.ArmProtect + st.ArmFrequency + st.ArmCost + st.ArmScatter; sum != st.Victims {
		t.Fatalf("arm pulls sum to %d, victims %d", sum, st.Victims)
	}
	if st.GhostHits == 0 {
		t.Fatal("no would-have-hit feedback reached the bandit on a thrash loop")
	}
}

// TestBanditDeterministic: the bandit is a pure function of stream and
// seed — same inputs, same misses, same stats.
func TestBanditDeterministic(t *testing.T) {
	const sets, assoc = 8, 4
	rng := rand.New(rand.NewSource(21))
	blocks := make([]uint64, 30000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(5 * sets * assoc))
	}
	b1 := NewBandit(sets, assoc, 9)
	b2 := NewBandit(sets, assoc, 9)
	m1 := replay(blocks, sets, assoc, b1)
	m2 := replay(blocks, sets, assoc, b2)
	if m1 != m2 || b1.Stats() != b2.Stats() {
		t.Fatalf("same stream + seed diverged: %d vs %d misses, %+v vs %+v", m1, m2, b1.Stats(), b2.Stats())
	}
}

// TestVictimPathAllocationFree pins the policy contract both learned
// policies share with the built-ins: zero allocations per access once
// the scratch buffers are warm.
func TestVictimPathAllocationFree(t *testing.T) {
	const sets, assoc = 16, 8
	model := NewModel(sets, assoc, 10, 1)
	pred, err := NewPredictor(model, sets, assoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    cache.Policy
	}{
		{"bandit", NewBandit(sets, assoc, 13)},
		{"learned", pred},
	} {
		c := cache.New(cache.Config{Sets: sets, Assoc: assoc, BlockBytes: 1}, tc.p)
		rng := rand.New(rand.NewSource(1))
		blocks := make([]uint64, 4096)
		for i := range blocks {
			blocks[i] = uint64(rng.Intn(4 * sets * assoc))
		}
		for _, b := range blocks { // warm the scratch buffers and fill the sets
			if !c.Probe(b, false) {
				c.Fill(b, uint8(b%8), false)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(2000, func() {
			b := blocks[i%len(blocks)]
			i++
			if !c.Probe(b, false) {
				c.Fill(b, uint8(b%8), false)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %.2f allocs per access on the victim path, want 0", tc.name, avg)
		}
	}
}
