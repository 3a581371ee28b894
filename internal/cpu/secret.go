package cpu

import "levioso/internal/mem"

// SecretTainter is the opt-in marker for policies that need the core to
// track secret-typed data (ProSpeCT-style). Only when the attached policy
// implements it does the core allocate the taint state and run the
// propagation hooks, so every other policy — including the golden baselines —
// pays nothing.
type SecretTainter interface {
	UsesSecretTaint()
}

// secretState tracks which physical registers and memory bytes currently
// hold secret-typed data. Register taint is written at execute time (the
// producing instruction's result is computed and, for loads, the forwarding
// store is still live) and read by Policy.Decide; because a consumer only
// reaches Decide after every source register has written back, the taint of
// its sources is always current. Memory taint combines the program's static
// secret ranges with a committed-store overlay (see mem.SecretSet).
type secretState struct {
	set    *mem.SecretSet
	regSec []bool // per physical register; stale entries are overwritten at reallocation's execute
}

func newSecretState(c *Core) *secretState {
	return &secretState{
		set:    mem.NewSecretSet(c.prog.Secrets),
		regSec: make([]bool, c.cfg.NumPhysRegs),
	}
}

// afterExec computes d's taint from its executed sources and publishes it to
// the destination register. Loads take the taint of the bytes read (or of
// the forwarding store's data), OR'd with the address register's taint —
// a secret-derived address makes the loaded value secret-dependent too.
// Stores taint only their data operand; the address influences *where* the
// overlay is marked at commit, not the stored value's secrecy.
func (s *secretState) afterExec(c *Core, d *DynInst, fwd *DynInst) {
	m := d.m
	var sec bool
	switch {
	case m.flags&mLoad != 0:
		if fwd != nil {
			sec = fwd.Secret
		} else if !d.MemErr {
			sec = s.set.Secret(d.Addr, int(m.memBytes))
		}
		sec = sec || s.reg(d.Src1)
	case m.flags&mStore != 0:
		sec = s.reg(d.Src2)
	default:
		sec = s.reg(d.Src1) || s.reg(d.Src2)
	}
	d.Secret = sec
	if d.Dst >= 0 {
		s.regSec[d.Dst] = sec
	}
	if sec && c.cov != nil {
		c.cov.mark(covTaint, covSite(d), 0)
	}
}

// commitStore records a retiring store into the memory-taint overlay:
// secret data classifies the destination bytes, public data declassifies
// them. Wrong-path stores never reach here, so the overlay is architectural.
func (s *secretState) commitStore(d *DynInst, size int) {
	s.set.MarkStored(d.Addr, size, d.Secret)
}

func (s *secretState) reg(p int32) bool {
	return p >= 0 && s.regSec[p]
}

// RegSecret reports whether physical register p currently holds
// secret-tainted data. Always false when the active policy does not request
// secret tracking.
func (c *Core) RegSecret(p int) bool {
	return c.sec != nil && p >= 0 && c.sec.regSec[p]
}
