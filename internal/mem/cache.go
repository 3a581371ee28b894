// Package mem provides the simulated physical memory and the cache hierarchy
// used by the out-of-order core. Cache state (which lines are resident) is
// the side channel every secure-speculation policy must protect: speculative
// fills perturb it by address, and the attack harness recovers secrets by
// timing probes against it.
package mem

import "fmt"

// CacheConfig describes one set-associative cache level.
type CacheConfig struct {
	Sets      int // number of sets (power of two)
	Ways      int
	LineBytes int // line size (power of two)
	Latency   int // access latency in cycles (hit cost at this level)
}

// Lines returns the total line capacity.
func (c CacheConfig) Lines() int { return c.Sets * c.Ways }

// SizeBytes returns the total data capacity.
func (c CacheConfig) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

func (c CacheConfig) validate(name string) error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("mem: %s sets %d not a positive power of two", name, c.Sets)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s line bytes %d not a positive power of two", name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: %s ways %d invalid", name, c.Ways)
	}
	if c.Latency <= 0 {
		return fmt.Errorf("mem: %s latency %d invalid", name, c.Latency)
	}
	return nil
}

// CacheStats counts accesses at one level.
type CacheStats struct {
	Hits, Misses, Evictions, Flushes uint64
}

// Cache is one tag-only set-associative cache level with LRU replacement.
// Data always lives in the backing Memory; the cache models presence and
// timing, which is exactly what the side channel needs.
type Cache struct {
	cfg   CacheConfig
	ways  []way // Sets*Ways entries, set-major: set s is ways[s*Ways:(s+1)*Ways]
	stamp uint64
	Stats CacheStats
}

// way is one cache line slot. used is its LRU stamp; stamps start at 1, so
// used == 0 marks an empty (invalid) way.
type way struct {
	tag  uint64 // line address
	used uint64
}

// NewCache builds a cache; it panics on invalid geometry (configs are
// validated by Hierarchy construction first).
func NewCache(cfg CacheConfig) *Cache {
	return &Cache{cfg: cfg, ways: make([]way, cfg.Sets*cfg.Ways)}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// line returns addr's set and its line address (the tag).
func (c *Cache) line(addr uint64) (set []way, tag uint64) {
	l := addr / uint64(c.cfg.LineBytes)
	s := int(l%uint64(c.cfg.Sets)) * c.cfg.Ways
	return c.ways[s : s+c.cfg.Ways], l
}

// find returns the way holding tag in set, or -1.
func find(set []way, tag uint64) int {
	for w := range set {
		if set[w].used != 0 && set[w].tag == tag {
			return w
		}
	}
	return -1
}

// Lookup reports whether addr's line is resident, updating LRU on hit but
// never filling.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.line(addr)
	if w := find(set, tag); w >= 0 {
		c.stamp++
		set[w].used = c.stamp
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Probe reports residency without touching LRU or statistics (used by tests
// and the attack scorer, which must not perturb the state it observes).
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.line(addr)
	return find(set, tag) >= 0
}

// Fill inserts addr's line, evicting the LRU way if needed.
func (c *Cache) Fill(addr uint64) {
	set, tag := c.line(addr)
	c.stamp++
	// Already resident (racing fills): refresh LRU only.
	if w := find(set, tag); w >= 0 {
		set[w].used = c.stamp
		return
	}
	victim := 0
	for w := range set {
		if set[w].used == 0 {
			victim = w
			break
		}
		if set[w].used < set[victim].used {
			victim = w
		}
	}
	if set[victim].used != 0 {
		c.Stats.Evictions++
	}
	set[victim] = way{tag: tag, used: c.stamp}
}

// Flush evicts addr's line if resident.
func (c *Cache) Flush(addr uint64) {
	set, tag := c.line(addr)
	if w := find(set, tag); w >= 0 {
		set[w].used = 0
		c.Stats.Flushes++
	}
}

// InvalidateAll empties the cache (used between attack trials).
func (c *Cache) InvalidateAll() {
	clear(c.ways)
}

// Reset returns the cache to its just-built state: no resident lines, the
// LRU clock at zero and every counter cleared. A recycled core resets its
// caches instead of building new ones.
func (c *Cache) Reset() {
	clear(c.ways)
	c.stamp = 0
	c.Stats = CacheStats{}
}
