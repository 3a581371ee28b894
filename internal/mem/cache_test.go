package mem

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{Sets: 2, Ways: 2, LineBytes: 64, Latency: 2})
}

func TestCacheHitMiss(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x1000) {
		t.Error("cold lookup hit")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("lookup after fill missed")
	}
	if !c.Lookup(0x1038) {
		t.Error("same line different offset missed")
	}
	if c.Lookup(0x1040) {
		t.Error("adjacent line hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 2 sets x 2 ways, 64B lines: set = (addr/64) % 2
	// Three lines mapping to set 0: 0x0, 0x80, 0x100.
	c.Fill(0x0)
	c.Fill(0x80)
	c.Lookup(0x0) // make 0x0 most recently used
	c.Fill(0x100) // evicts 0x80
	if !c.Probe(0x0) {
		t.Error("MRU line evicted")
	}
	if c.Probe(0x80) {
		t.Error("LRU line survived")
	}
	if !c.Probe(0x100) {
		t.Error("filled line absent")
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats.Evictions)
	}
}

// TestCacheReset checks that a used cache reset in place is
// indistinguishable from a newly built one: same lines, LRU clock and
// counters, and so the same replacement decisions afterwards.
func TestCacheReset(t *testing.T) {
	c := smallCache()
	for _, a := range []uint64{0x0, 0x80, 0x100, 0x40} {
		c.Lookup(a)
		c.Fill(a)
	}
	c.Flush(0x40)
	c.Reset()
	fresh := smallCache()
	if !slices.Equal(c.ways, fresh.ways) || c.stamp != fresh.stamp || c.Stats != fresh.Stats {
		t.Fatalf("reset cache differs from a new one: stamp %d stats %+v", c.stamp, c.Stats)
	}
}

func TestCacheProbeIsPure(t *testing.T) {
	c := smallCache()
	c.Fill(0x0)
	h, m := c.Stats.Hits, c.Stats.Misses
	c.Probe(0x0)
	c.Probe(0x40)
	if c.Stats.Hits != h || c.Stats.Misses != m {
		t.Error("Probe changed statistics")
	}
}

func TestCacheFlush(t *testing.T) {
	c := smallCache()
	c.Fill(0x0)
	c.Flush(0x20) // same line
	if c.Probe(0x0) {
		t.Error("flush did not evict")
	}
	c.Flush(0x0) // already gone: no-op
	if c.Stats.Flushes != 1 {
		t.Errorf("flushes = %d", c.Stats.Flushes)
	}
}

func TestCacheDoubleFill(t *testing.T) {
	c := smallCache()
	c.Fill(0x0)
	c.Fill(0x0)
	c.Fill(0x80)
	if !c.Probe(0x0) || !c.Probe(0x80) {
		t.Error("double fill corrupted set")
	}
	if c.Stats.Evictions != 0 {
		t.Error("double fill evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig(), NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Cfg
	full := cfg.L1D.Latency + cfg.L2.Latency + cfg.MemLatency
	if lat := h.LoadLatency(0x2000); lat != full {
		t.Errorf("cold load lat = %d, want %d", lat, full)
	}
	if lat := h.LoadLatency(0x2000); lat != cfg.L1D.Latency {
		t.Errorf("warm load lat = %d, want %d", lat, cfg.L1D.Latency)
	}
	h.L1D.Flush(0x2000)
	if lat := h.LoadLatency(0x2000); lat != cfg.L1D.Latency+cfg.L2.Latency {
		t.Errorf("L2-hit load lat = %d", lat)
	}
}

func TestHierarchyInvisibleLoad(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierConfig(), NewMemory())
	cfg := h.Cfg
	full := cfg.L1D.Latency + cfg.L2.Latency + cfg.MemLatency
	// Invisible load of a cold line: full latency, and the line stays cold.
	if lat := h.InvisibleLoadLatency(0x3000); lat != full {
		t.Errorf("invisible cold lat = %d, want %d", lat, full)
	}
	if h.ProbeD(0x3000) || h.L2.Probe(0x3000) {
		t.Error("invisible load changed cache state")
	}
	// Second invisible load pays full latency again (miss amplification).
	if lat := h.InvisibleLoadLatency(0x3000); lat != full {
		t.Errorf("repeat invisible lat = %d, want %d", lat, full)
	}
	// Exposure fills without latency.
	h.FillVisible(0x3000)
	if !h.ProbeD(0x3000) {
		t.Error("FillVisible did not fill")
	}
	if lat := h.InvisibleLoadLatency(0x3000); lat != cfg.L1D.Latency {
		t.Errorf("invisible warm lat = %d", lat)
	}
}

func TestHierarchyFlushBothLevels(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierConfig(), NewMemory())
	h.LoadLatency(0x4000)
	h.Flush(0x4000)
	if h.L1D.Probe(0x4000) || h.L2.Probe(0x4000) {
		t.Error("flush left line resident")
	}
	full := h.Cfg.L1D.Latency + h.Cfg.L2.Latency + h.Cfg.MemLatency
	if lat := h.LoadLatency(0x4000); lat != full {
		t.Errorf("post-flush lat = %d, want %d", lat, full)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h, _ := NewHierarchy(DefaultHierConfig(), NewMemory())
	cold := h.Cfg.L1I.Latency + h.Cfg.L2.Latency + h.Cfg.MemLatency
	if lat := h.FetchLatency(0x1000); lat != cold {
		t.Errorf("cold fetch = %d, want %d", lat, cold)
	}
	if lat := h.FetchLatency(0x1000); lat != h.Cfg.L1I.Latency {
		t.Errorf("warm fetch = %d", lat)
	}
	// I-fetch warms L2: a D-load of the same line is an L2 hit.
	h.L1D.Flush(0x1000)
	if lat := h.LoadLatency(0x1000); lat != h.Cfg.L1D.Latency+h.Cfg.L2.Latency {
		t.Errorf("load after fetch = %d", lat)
	}
}

func TestHierConfigValidate(t *testing.T) {
	bad := DefaultHierConfig()
	bad.L1D.Sets = 3
	if _, err := NewHierarchy(bad, NewMemory()); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	bad = DefaultHierConfig()
	bad.MemLatency = 0
	if _, err := NewHierarchy(bad, NewMemory()); err == nil {
		t.Error("zero memory latency accepted")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache()
	c.Fill(0x0)
	c.Fill(0x40)
	c.InvalidateAll()
	if c.Probe(0x0) || c.Probe(0x40) {
		t.Error("InvalidateAll left lines")
	}
}

// lruModel is a naive reference cache: each set is a list of resident line
// addresses, least recently used first.
type lruModel struct {
	sets      [][]uint64
	ways      int
	lineBytes uint64
	stats     CacheStats
}

func newLRUModel(cfg CacheConfig) *lruModel {
	return &lruModel{sets: make([][]uint64, cfg.Sets), ways: cfg.Ways, lineBytes: uint64(cfg.LineBytes)}
}

// find returns addr's set index, line address and position in the set (-1
// when absent).
func (m *lruModel) find(addr uint64) (int, uint64, int) {
	l := addr / m.lineBytes
	s := int(l % uint64(len(m.sets)))
	return s, l, slices.Index(m.sets[s], l)
}

// touch moves position i of set s to the most recently used end.
func (m *lruModel) touch(s, i int) {
	l := m.sets[s][i]
	m.sets[s] = append(slices.Delete(m.sets[s], i, i+1), l)
}

func (m *lruModel) lookup(addr uint64) bool {
	s, _, i := m.find(addr)
	if i < 0 {
		m.stats.Misses++
		return false
	}
	m.touch(s, i)
	m.stats.Hits++
	return true
}

func (m *lruModel) probe(addr uint64) bool {
	_, _, i := m.find(addr)
	return i >= 0
}

func (m *lruModel) fill(addr uint64) {
	s, l, i := m.find(addr)
	switch {
	case i >= 0:
		m.touch(s, i)
	case len(m.sets[s]) < m.ways:
		m.sets[s] = append(m.sets[s], l)
	default:
		m.sets[s] = append(m.sets[s][1:], l)
		m.stats.Evictions++
	}
}

func (m *lruModel) flush(addr uint64) {
	if s, _, i := m.find(addr); i >= 0 {
		m.sets[s] = slices.Delete(m.sets[s], i, i+1)
		m.stats.Flushes++
	}
}

func (m *lruModel) invalidateAll() {
	for s := range m.sets {
		m.sets[s] = m.sets[s][:0]
	}
}

// TestCacheMatchesLRUModel drives the cache and the naive model with the
// same seeded stream of operations over twice as many lines as the cache
// holds, so sets fill, evict, flush and refill, with an InvalidateAll about
// every ten cache capacities' worth of operations: every residency answer
// and every statistic must agree.
func TestCacheMatchesLRUModel(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {2, 2}, {64, 8}, {256, 16}} {
		cfg := CacheConfig{Sets: geo[0], Ways: geo[1], LineBytes: 64, Latency: 1}
		c, m := NewCache(cfg), newLRUModel(cfg)
		rng := rand.New(rand.NewPCG(uint64(cfg.Lines()), 7))
		lines := uint64(2 * cfg.Lines())
		invalidations := 0
		for op := 0; op < 20000+40*cfg.Lines(); op++ {
			addr := rng.Uint64N(lines)*64 + rng.Uint64N(64)
			switch r := rng.IntN(100); {
			case r < 40:
				if got, want := c.Lookup(addr), m.lookup(addr); got != want {
					t.Fatalf("%dx%d op %d: Lookup(%#x) = %v, want %v", geo[0], geo[1], op, addr, got, want)
				}
			case r < 80:
				c.Fill(addr)
				m.fill(addr)
			case r < 90:
				c.Flush(addr)
				m.flush(addr)
			case r < 99:
				if got, want := c.Probe(addr), m.probe(addr); got != want {
					t.Fatalf("%dx%d op %d: Probe(%#x) = %v, want %v", geo[0], geo[1], op, addr, got, want)
				}
			default:
				if rng.IntN(max(1, cfg.Lines()/10)) == 0 {
					c.InvalidateAll()
					m.invalidateAll()
					invalidations++
				}
			}
			if c.Stats != m.stats {
				t.Fatalf("%dx%d op %d: stats %+v, want %+v", geo[0], geo[1], op, c.Stats, m.stats)
			}
		}
		for l := uint64(0); l < lines; l++ {
			if got, want := c.Probe(l*64), m.probe(l*64); got != want {
				t.Fatalf("%dx%d: final residency of line %d = %v, want %v", geo[0], geo[1], l, got, want)
			}
		}
		if s := m.stats; s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 || s.Flushes == 0 || invalidations == 0 {
			t.Errorf("%dx%d: stream left an operation unexercised: %+v, %d invalidations", geo[0], geo[1], s, invalidations)
		}
	}
}
