package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"levioso/internal/core"
	"levioso/internal/cpu"
	"levioso/internal/isa"
	"levioso/internal/mem"
	"levioso/internal/obs"
)

// CacheKey derives a stable result-cache key for simulating prog under the
// given policy and configuration: sha256 over a fixed-order binary encoding
// of the policy name, the run-mode flags and every scalar cpu.Config field,
// followed by the program's LEV64 image (hashed as isa's WriteTo emits it,
// without building the image). The simulator is deterministic, so two
// requests with equal keys produce identical results — this is what lets
// levserve serve repeated sweep cells without re-simulating.
//
// The second return value reports cacheability. Requests whose configuration
// carries behavioral hooks — a trace writer, fault-injection wrappers, a
// commit-stall callback, a coverage sink — are not cacheable: the hooks are
// opaque side channels whose effects cannot be keyed (and a cached result
// would silently skip filling the coverage sink).
func CacheKey(prog *isa.Program, policy string, cfg cpu.Config, useRef, verify bool) (string, bool) {
	h, ok := keyHash(policy, &cfg, useRef, verify)
	if !ok {
		return "", false
	}
	if _, err := prog.WriteTo(h); err != nil {
		return "", false
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// ImageKey is CacheKey for a program held as a LEV64 image: it hashes img as
// it is, so a cell that arrived as bytes is keyed without decoding or
// re-encoding them. For img = prog.MarshalBinary() both functions return the
// same key. Two different byte encodings of one program (a version-2 image
// with no secret ranges, say, or trailing bytes Load ignores) key apart.
func ImageKey(img []byte, policy string, cfg cpu.Config, useRef, verify bool) (string, bool) {
	h, ok := keyHash(policy, &cfg, useRef, verify)
	if !ok {
		return "", false
	}
	h.Write(img)
	return hex.EncodeToString(h.Sum(nil)), true
}

// CacheKeyObserved is ImageKey when img is non-nil and CacheKey of prog
// otherwise, with its computation time recorded into ctx's obs registry
// (engine_stage_seconds{stage="cachekey"}). Key derivation hashes the whole
// program image, so a serving layer keying every request wants it on its
// latency dashboard next to the pipeline stages.
func CacheKeyObserved(ctx context.Context, prog *isa.Program, img []byte, policy string, cfg cpu.Config, useRef, verify bool) (string, bool) {
	sp := obs.StartSpan(ctx, "engine.cachekey")
	var key string
	var ok bool
	if img != nil {
		key, ok = ImageKey(img, policy, cfg, useRef, verify)
	} else {
		key, ok = CacheKey(prog, policy, cfg, useRef, verify)
	}
	sp.End(obs.OutcomeOK)
	return key, ok
}

// keyHash starts a key: a sha256 that has absorbed everything but the
// program. The prefix is self-delimiting (the policy is length-prefixed,
// every other field fixed-width), so the program bytes that follow cannot be
// confused with it. ok is false for a configuration carrying hooks.
func keyHash(policy string, cfg *cpu.Config, useRef, verify bool) (hash.Hash, bool) {
	if cfg.Trace != nil || cfg.WrapMem != nil || cfg.WrapPred != nil || cfg.CommitStall != nil || cfg.Coverage != nil {
		return nil, false
	}
	var buf [512]byte
	b := binary.LittleEndian.AppendUint32(buf[:0], uint32(len(policy)))
	b = append(b, policy...)
	var flags byte
	if useRef {
		flags |= 1
	}
	if verify {
		flags |= 2
	}
	b = append(b, flags)
	b = appendConfig(b, cfg)
	h := sha256.New()
	h.Write(b)
	return h, true
}

// appendConfig encodes every scalar field of cfg in declaration order, eight
// bytes each, with a defaulted field encoded as the value it stands for. A
// field added to cpu.Config (or to the predictor, hierarchy or
// cache configurations it embeds) must be added here too;
// TestCacheKeyCoversConfig fails until it is.
func appendConfig(b []byte, c *cpu.Config) []byte {
	for _, v := range [...]int{
		c.FetchWidth, c.RenameWidth, c.IssueWidth, c.CommitWidth,
		c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.NumPhysRegs, c.FetchBufSize,
		c.NumALU, c.NumMul, c.NumMemPorts, c.MulLatency,
		c.DivLatencyBase, c.DivLatencyRange,
		c.RedirectPenalty, c.BranchResolveLatency,
		c.Predictor.GShareBits, c.Predictor.HistoryBits, c.Predictor.BTBEntries, c.Predictor.RASDepth,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Predictor.ForceMispredictRate))
	for _, cc := range [...]*mem.CacheConfig{&c.Hier.L1I, &c.Hier.L1D, &c.Hier.L2} {
		for _, v := range [...]int{cc.Sets, cc.Ways, cc.LineBytes, cc.Latency} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(c.Hier.MemLatency))
	b = binary.LittleEndian.AppendUint64(b, c.MaxCycles)
	b = binary.LittleEndian.AppendUint64(b, c.MaxInsts)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.WatchdogCycles))
	bdt := c.BDTEntries
	if bdt == 0 {
		bdt = core.NumSlots // the core's default table: 0 and NumSlots are one core
	}
	return binary.LittleEndian.AppendUint64(b, uint64(bdt))
}
