package cpu

import "fmt"

// PredConfig configures the front-end predictors.
type PredConfig struct {
	GShareBits  int // log2 of the pattern history table size
	HistoryBits int // global history length
	BTBEntries  int // direct-mapped indirect-target buffer (power of two)
	RASDepth    int // return address stack entries
	// ForceMispredictRate, when in (0,1], overrides the gshare direction
	// prediction with a deterministic pseudo-random predictor that is wrong
	// for approximately this fraction of conditional branches. Used by the
	// predictor-quality sensitivity sweep (experiment F4); 0 disables it.
	ForceMispredictRate float64
}

// DefaultPredConfig returns the baseline predictor.
func DefaultPredConfig() PredConfig {
	return PredConfig{GShareBits: 14, HistoryBits: 12, BTBEntries: 1024, RASDepth: 16}
}

// Validate checks the predictor geometry.
func (c PredConfig) Validate() error {
	if c.GShareBits < 1 || c.GShareBits > 24 {
		return fmt.Errorf("cpu: GShareBits %d out of range", c.GShareBits)
	}
	if c.HistoryBits < 0 || c.HistoryBits > 32 {
		return fmt.Errorf("cpu: HistoryBits %d out of range", c.HistoryBits)
	}
	if c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("cpu: BTBEntries %d not a positive power of two", c.BTBEntries)
	}
	if c.RASDepth <= 0 {
		return fmt.Errorf("cpu: RASDepth %d invalid", c.RASDepth)
	}
	if c.ForceMispredictRate < 0 || c.ForceMispredictRate > 1 {
		return fmt.Errorf("cpu: ForceMispredictRate %f out of range", c.ForceMispredictRate)
	}
	return nil
}

// PredCheckpoint snapshots the speculative predictor state at a control
// instruction, for recovery on misprediction.
type PredCheckpoint struct {
	History uint64
	RAS     []uint64
	RASTop  int
}

// Predictor is the front-end branch prediction unit: a gshare direction
// predictor, a direct-mapped BTB for indirect targets, and a return address
// stack. Direction/target state is updated speculatively at prediction time
// (history, RAS) and non-speculatively at commit (counters, BTB).
type Predictor struct {
	cfg     PredConfig
	pht     []uint8 // 2-bit saturating counters
	history uint64
	btbTag  []uint64
	btbTgt  []uint64
	ras     []uint64
	rasTop  int // index of next push slot

	// forceLCG drives the deterministic degraded predictor for F4.
	forceLCG uint64

	Lookups     uint64
	CondPredict uint64
}

// NewPredictor builds the predictor.
func NewPredictor(cfg PredConfig) *Predictor {
	return &Predictor{
		cfg:    cfg,
		pht:    make([]uint8, 1<<cfg.GShareBits),
		btbTag: make([]uint64, cfg.BTBEntries),
		btbTgt: make([]uint64, cfg.BTBEntries),
		ras:    make([]uint64, cfg.RASDepth),
	}
}

// Reset returns the predictor to its just-built state in place: counters,
// history, BTB, return stack, the degraded-predictor draw and the lookup
// counters. A recycled core resets its predictor instead of building one.
func (p *Predictor) Reset() {
	clear(p.pht)
	clear(p.btbTag)
	clear(p.btbTgt)
	clear(p.ras)
	p.history, p.rasTop, p.forceLCG = 0, 0, 0
	p.Lookups, p.CondPredict = 0, 0
}

func (p *Predictor) phtIndex(pc uint64) int {
	h := p.history & (1<<uint(p.cfg.HistoryBits) - 1)
	return int((pc/8 ^ h) & (1<<uint(p.cfg.GShareBits) - 1))
}

// PredictBranch predicts a conditional branch's direction and speculatively
// updates the global history. The returned index identifies the PHT entry for
// the commit-time update.
func (p *Predictor) PredictBranch(pc uint64) (taken bool, phtIdx int) {
	p.Lookups++
	p.CondPredict++
	phtIdx = p.phtIndex(pc)
	taken = p.pht[phtIdx] >= 2
	if p.cfg.ForceMispredictRate > 0 {
		// Deterministic LCG draw; when it lands under the target rate the
		// prediction is intentionally independent of program behaviour
		// (fixed "taken"), approximating a predictor of the desired quality.
		p.forceLCG = p.forceLCG*6364136223846793005 + 1442695040888963407
		draw := float64(p.forceLCG>>11) / float64(1<<53)
		if draw < p.cfg.ForceMispredictRate*2 {
			// Randomize the direction rather than forcing a mispredict so
			// the achieved mispredict rate ≈ rate (a random guess is wrong
			// half the time).
			taken = p.forceLCG&(1<<20) != 0
		}
	}
	p.history = p.history<<1 | b2u(taken)
	return taken, phtIdx
}

// UpdateBranch trains the PHT entry at commit time with the actual outcome.
func (p *Predictor) UpdateBranch(phtIdx int, taken bool) {
	c := p.pht[phtIdx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.pht[phtIdx] = c
}

// PredictIndirect predicts a JALR target via the BTB; ok is false on a tag
// miss (the front end then falls through and will almost surely mispredict).
func (p *Predictor) PredictIndirect(pc uint64) (uint64, bool) {
	p.Lookups++
	i := int(pc / 8 % uint64(p.cfg.BTBEntries))
	if p.btbTag[i] == pc {
		return p.btbTgt[i], true
	}
	return 0, false
}

// UpdateIndirect trains the BTB at commit time.
func (p *Predictor) UpdateIndirect(pc, target uint64) {
	i := int(pc / 8 % uint64(p.cfg.BTBEntries))
	p.btbTag[i] = pc
	p.btbTgt[i] = target
}

// PushRAS records a return address at a call.
func (p *Predictor) PushRAS(addr uint64) {
	p.ras[p.rasTop] = addr
	p.rasTop = (p.rasTop + 1) % p.cfg.RASDepth
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() uint64 {
	p.rasTop = (p.rasTop - 1 + p.cfg.RASDepth) % p.cfg.RASDepth
	return p.ras[p.rasTop]
}

// Checkpoint captures speculative state for a control instruction.
func (p *Predictor) Checkpoint() PredCheckpoint {
	var cp PredCheckpoint
	p.CheckpointInto(&cp)
	return cp
}

// CheckpointInto captures speculative state into cp, reusing cp's RAS buffer
// when it has capacity. This is the allocation-free form the core's hot loop
// uses: checkpoints live in a core-owned pool and their RAS snapshot buffers
// are recycled with them.
func (p *Predictor) CheckpointInto(cp *PredCheckpoint) {
	cp.History = p.history
	cp.RAS = append(cp.RAS[:0], p.ras...)
	cp.RASTop = p.rasTop
}

// Recover restores speculative state from a checkpoint taken at a
// mispredicted control instruction and re-applies the actual outcome.
func (p *Predictor) Recover(cp PredCheckpoint, isCond, actualTaken bool) {
	p.history = cp.History
	copy(p.ras, cp.RAS)
	p.rasTop = cp.RASTop
	if isCond {
		p.history = p.history<<1 | b2u(actualTaken)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
