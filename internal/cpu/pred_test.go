package cpu

import (
	"reflect"
	"testing"
)

// train predicts pc and applies the actual outcome the way the core does:
// PHT update at commit plus history repair on a misprediction.
func train(p *Predictor, pc uint64, actual bool) bool {
	cp := p.Checkpoint()
	pred, idx := p.PredictBranch(pc)
	p.UpdateBranch(idx, actual)
	if pred != actual {
		p.Recover(cp, true, actual)
	}
	return pred
}

func TestGShareLearnsBias(t *testing.T) {
	p := NewPredictor(DefaultPredConfig())
	pc := uint64(0x1000)
	// Train strongly taken: long enough for the history to stabilize.
	for i := 0; i < 40; i++ {
		train(p, pc, true)
	}
	cp := p.Checkpoint()
	taken, _ := p.PredictBranch(pc)
	p.Recover(cp, true, true)
	if !taken {
		t.Error("predictor did not learn a taken bias")
	}
}

func TestGShareAlternatingWithHistory(t *testing.T) {
	p := NewPredictor(DefaultPredConfig())
	pc := uint64(0x2000)
	// Alternating pattern: with global history the PHT can learn it.
	correct := 0
	outcome := false
	for i := 0; i < 200; i++ {
		if train(p, pc, outcome) == outcome {
			correct++
		}
		outcome = !outcome
	}
	// After warmup the alternation should be nearly perfect.
	if correct < 150 {
		t.Errorf("alternating pattern: %d/200 correct", correct)
	}
}

func TestBTBRoundTrip(t *testing.T) {
	p := NewPredictor(DefaultPredConfig())
	if _, hit := p.PredictIndirect(0x3000); hit {
		t.Error("cold BTB hit")
	}
	p.UpdateIndirect(0x3000, 0x4000)
	tgt, hit := p.PredictIndirect(0x3000)
	if !hit || tgt != 0x4000 {
		t.Errorf("BTB = %#x, %v", tgt, hit)
	}
	// Aliasing entry replaces.
	alias := 0x3000 + uint64(DefaultPredConfig().BTBEntries)*8
	p.UpdateIndirect(alias, 0x5000)
	if _, hit := p.PredictIndirect(0x3000); hit {
		t.Error("evicted BTB entry still hits")
	}
}

func TestRASLIFO(t *testing.T) {
	p := NewPredictor(DefaultPredConfig())
	p.PushRAS(0x100)
	p.PushRAS(0x200)
	if got := p.PopRAS(); got != 0x200 {
		t.Errorf("pop = %#x", got)
	}
	if got := p.PopRAS(); got != 0x100 {
		t.Errorf("pop = %#x", got)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	cfg := DefaultPredConfig()
	p := NewPredictor(cfg)
	for i := 0; i < cfg.RASDepth+2; i++ {
		p.PushRAS(uint64(i))
	}
	// The two oldest entries were overwritten; the newest pops first.
	if got := p.PopRAS(); got != uint64(cfg.RASDepth+1) {
		t.Errorf("pop after overflow = %d", got)
	}
}

func TestCheckpointRecover(t *testing.T) {
	p := NewPredictor(DefaultPredConfig())
	p.PushRAS(0xaa)
	cp := p.Checkpoint()
	// Speculative damage.
	p.PredictBranch(0x1000)
	p.PopRAS()
	p.PushRAS(0xdead)
	p.Recover(cp, true, true)
	if got := p.PopRAS(); got != 0xaa {
		t.Errorf("RAS after recover = %#x", got)
	}
}

func TestForcedMispredictRateDegrades(t *testing.T) {
	cfg := DefaultPredConfig()
	cfg.ForceMispredictRate = 0.5
	p := NewPredictor(cfg)
	pc := uint64(0x1000)
	wrong := 0
	for i := 0; i < 2000; i++ {
		if !train(p, pc, true) { // always-taken branch
			wrong++
		}
	}
	// An always-taken branch is normally ~100% right; with rate 0.5 roughly
	// half the predictions are random, so ~25%+ should be wrong.
	if wrong < 200 {
		t.Errorf("forced mispredict rate had no effect: %d/2000 wrong", wrong)
	}
}

// TestPredictorReset checks that a trained predictor reset in place equals
// a newly built one in every field, the degraded-predictor draw included.
func TestPredictorReset(t *testing.T) {
	cfg := DefaultPredConfig()
	cfg.ForceMispredictRate = 0.3
	p := NewPredictor(cfg)
	for i := range 500 {
		pc := uint64(0x1000 + 8*(i%37))
		train(p, pc, i%3 == 0)
		p.UpdateIndirect(pc, pc+64)
		p.PushRAS(pc)
	}
	p.Reset()
	if fresh := NewPredictor(cfg); !reflect.DeepEqual(p, fresh) {
		t.Errorf("reset predictor differs from a new one:\n got  %+v\n want %+v", p, fresh)
	}
}

func TestPredConfigValidate(t *testing.T) {
	cfg := DefaultPredConfig()
	cfg.GShareBits = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad GShareBits accepted")
	}
	cfg = DefaultPredConfig()
	cfg.ForceMispredictRate = 2
	if err := cfg.Validate(); err == nil {
		t.Error("bad rate accepted")
	}
	cfg = DefaultPredConfig()
	cfg.RASDepth = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad RAS depth accepted")
	}
}
