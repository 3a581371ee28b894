package mem

import "fmt"

// HierConfig describes the full memory system.
type HierConfig struct {
	L1I, L1D, L2 CacheConfig
	MemLatency   int // DRAM access cycles beyond L2
}

// DefaultHierConfig mirrors the class of configuration used in the paper's
// gem5 setup, scaled to the suite's working sets: 32 KiB L1s, 256 KiB L2,
// ~100-cycle memory. (The paper's SPEC runs use a larger LLC against
// gigabyte-scale footprints; the ratio of footprint to capacity — which is
// what determines miss behaviour under speculation — is preserved.)
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:        CacheConfig{Sets: 64, Ways: 8, LineBytes: 64, Latency: 1},
		L1D:        CacheConfig{Sets: 64, Ways: 8, LineBytes: 64, Latency: 2},
		L2:         CacheConfig{Sets: 256, Ways: 16, LineBytes: 64, Latency: 12},
		MemLatency: 120,
	}
}

// Validate checks the configuration.
func (c HierConfig) Validate() error {
	if err := c.L1I.validate("L1I"); err != nil {
		return err
	}
	if err := c.L1D.validate("L1D"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("mem: memory latency %d invalid", c.MemLatency)
	}
	return nil
}

// Hierarchy is the two-level cache system over the physical memory.
type Hierarchy struct {
	Cfg  HierConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	Phys *Memory
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierConfig, phys *Memory) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{
		Cfg:  cfg,
		L1I:  NewCache(cfg.L1I),
		L1D:  NewCache(cfg.L1D),
		L2:   NewCache(cfg.L2),
		Phys: phys,
	}, nil
}

// Reset empties all three caches (see Cache.Reset) and puts the hierarchy
// over phys, leaving it as NewHierarchy(h.Cfg, phys) would build it.
func (h *Hierarchy) Reset(phys *Memory) {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.Phys = phys
}

// FetchLatency performs an instruction fetch at addr: returns the access
// latency and fills the I-side caches.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Lookup(addr) {
		return h.Cfg.L1I.Latency
	}
	lat := h.Cfg.L1I.Latency
	if h.L2.Lookup(addr) {
		lat += h.Cfg.L2.Latency
	} else {
		lat += h.Cfg.L2.Latency + h.Cfg.MemLatency
		h.L2.Fill(addr)
	}
	h.L1I.Fill(addr)
	return lat
}

// LoadLatency performs a visible data access at addr: returns the latency and
// fills the D-side caches. This is the state change Spectre observes.
func (h *Hierarchy) LoadLatency(addr uint64) int {
	if h.L1D.Lookup(addr) {
		return h.Cfg.L1D.Latency
	}
	lat := h.Cfg.L1D.Latency
	if h.L2.Lookup(addr) {
		lat += h.Cfg.L2.Latency
	} else {
		lat += h.Cfg.L2.Latency + h.Cfg.MemLatency
		h.L2.Fill(addr)
	}
	h.L1D.Fill(addr)
	return lat
}

// InvisibleLoadLatency computes the latency a load would incur right now
// WITHOUT changing any cache state — the InvisiSpec/GhostMinion-style
// invisible execution used by the `invisible` baseline policy. LRU and
// hit/miss statistics are untouched.
func (h *Hierarchy) InvisibleLoadLatency(addr uint64) int {
	if h.L1D.Probe(addr) {
		return h.Cfg.L1D.Latency
	}
	if h.L2.Probe(addr) {
		return h.Cfg.L1D.Latency + h.Cfg.L2.Latency
	}
	return h.Cfg.L1D.Latency + h.Cfg.L2.Latency + h.Cfg.MemLatency
}

// FillVisible makes addr's line resident in the D-side hierarchy without
// charging latency: the deferred "exposure" step of an invisible load once it
// becomes non-speculative, and the write-allocate step of a committed store.
func (h *Hierarchy) FillVisible(addr uint64) {
	h.L2.Fill(addr)
	h.L1D.Fill(addr)
}

// Flush evicts addr's line from the D-side hierarchy (CFLUSH semantics).
func (h *Hierarchy) Flush(addr uint64) {
	h.L1D.Flush(addr)
	h.L2.Flush(addr)
}

// ProbeD reports whether addr is resident in L1D (attack scorer helper;
// no state perturbation).
func (h *Hierarchy) ProbeD(addr uint64) bool { return h.L1D.Probe(addr) }

// HierStats snapshots the per-level access counters.
type HierStats struct {
	L1I, L1D, L2 CacheStats
}

// Stats returns the current per-level counters. Interposing wrappers (fault
// injection, instrumentation) forward this so the core's statistics stay
// attributable to the real caches.
func (h *Hierarchy) Stats() HierStats {
	return HierStats{L1I: h.L1I.Stats, L1D: h.L1D.Stats, L2: h.L2.Stats}
}
