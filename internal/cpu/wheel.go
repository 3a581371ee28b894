package cpu

import "math/bits"

// The completion wheel makes the writeback/recovery stage event-driven.
// Instead of scanning the whole ROB every cycle for instructions whose
// DoneCycle is now (O(window) per cycle, the classic gem5-class cost), the
// core files every executing instruction into a bucket keyed by the low bits
// of its completion cycle and the complete stage touches exactly one bucket
// per cycle. Latencies longer than the wheel circumference simply stay in
// their bucket across laps (one compare per lap); determinism is preserved
// by draining each bucket in sequence-number order, which is identical to
// the ROB order the scan-based stage used.

const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wheelEntry is one scheduled completion. gen snapshots the instruction's
// recycle generation at schedule time: a squashed instruction is recycled
// (gen bumped) without touching the wheel, and its stale entry is dropped
// lazily when the bucket next comes around.
type wheelEntry struct {
	d   *DynInst
	gen uint32
}

// schedule files d to complete at d.DoneCycle.
func (c *Core) schedule(d *DynInst) {
	b := d.DoneCycle & wheelMask
	c.wheel[b] = append(c.wheel[b], wheelEntry{d: d, gen: d.gen})
	c.bucketBits[b>>6] |= 1 << (b & 63)
}

// dueNow drains the current cycle's bucket into c.dueBuf, in program
// (sequence) order, dropping stale entries and re-arming wheel laps.
func (c *Core) dueNow() []*DynInst {
	bucket := c.wheel[c.cycle&wheelMask]
	if len(bucket) == 0 {
		return nil
	}
	due := c.dueBuf[:0]
	keep := bucket[:0]
	for _, e := range bucket {
		if e.gen != e.d.gen {
			continue // squashed and recycled since scheduling: drop
		}
		if e.d.DoneCycle != c.cycle {
			keep = append(keep, e) // latency ≥ wheelSize: next lap
			continue
		}
		due = append(due, e.d)
	}
	c.wheel[c.cycle&wheelMask] = keep
	if len(keep) == 0 {
		b := c.cycle & wheelMask
		c.bucketBits[b>>6] &^= 1 << (b & 63)
	}
	c.dueBuf = due

	// Insertion sort by Seq: bucket order is issue order, and the oldest
	// mispredict must be selected and slots resolved oldest-first exactly as
	// the ROB scan did. Buckets hold at most a few in-flight completions.
	for i := 1; i < len(due); i++ {
		d := due[i]
		j := i - 1
		for j >= 0 && due[j].Seq > d.Seq {
			due[j+1] = due[j]
			j--
		}
		due[j+1] = d
	}
	return due
}

// wheelNext returns the cycle of the nearest bucket (in ring order, strictly
// after the current cycle's position) that holds any entry, and whether one
// exists. That cycle upper-bounds when the next completion can happen: no
// bucket position crossed before it holds anything, so every skipped-over
// cycle's complete stage would have found an empty bucket. The target bucket
// itself may hold only later-lap or stale entries — landing there and finding
// nothing due is harmless (the cycle is idle again and the skip repeats),
// and draining the bucket at that cycle is exactly what per-cycle stepping
// would have done.
func (c *Core) wheelNext() (uint64, bool) {
	best := uint64(0)
	found := false
	for wi, w := range c.bucketBits {
		for w != 0 {
			q := uint64(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			delta := (q - c.cycle) & wheelMask
			if delta == 0 {
				delta = wheelSize // current position: due again next lap
			}
			if t := c.cycle + delta; !found || t < best {
				best, found = t, true
			}
		}
	}
	return best, found
}
