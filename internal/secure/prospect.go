package secure

import "levioso/internal/cpu"

// prospectPolicy is the ProSpeCT-style constant-time defense (Daniel et al.,
// "ProSpeCT: Provably Secure Speculation for the Constant-Time Policy"):
// the program declares which memory is secret-typed (`.secret` / `secret
// var`), the core tracks a secret-taint bit through register dataflow,
// loads and store-forwarding (see cpu.SecretTainter), and only a transient
// transmitter whose *operand* is secret-tainted is delayed. Transmitters
// over public data — and every transmitter in a program with no declared
// secrets — proceed at full speed, which is the mechanism's selling point:
// constant-time code pays (near) zero overhead.
//
// The contract is CoverageSecret: declared secrets never reach a transient
// transmitter operand, while unmarked data leaks by design (the attack
// matrix and fuzz oracle hold it to exactly that).
type prospectPolicy struct {
	c *cpu.Core
}

// UsesSecretTaint opts the core into secret-taint tracking.
func (p *prospectPolicy) UsesSecretTaint() {}

func (p *prospectPolicy) Name() string          { return "prospect" }
func (p *prospectPolicy) Attach(c *cpu.Core)    { p.c = c }
func (p *prospectPolicy) Reset()                {}
func (p *prospectPolicy) OnSlotResolved(int)    {}
func (p *prospectPolicy) OnSquash(*cpu.DynInst) {}

// OnRename marks transmitters with the full unresolved-branch set; the core
// drains the mask as branches resolve, so at Decide time a nonzero mask
// means "still transient".
func (p *prospectPolicy) OnRename(d *cpu.DynInst) {
	if d.IsTransmitter() {
		d.WaitMask = p.c.BT.Unresolved()
	}
}

// Decide delays a transient transmitter only when one of its source
// registers is secret-tainted. Operand taint is current here: Decide runs
// once every source has written back, and the core publishes a producer's
// taint at execute, strictly before the ready wakeup.
func (p *prospectPolicy) Decide(d *cpu.DynInst) cpu.Decision {
	if d.WaitMask != 0 && (p.c.RegSecret(int(d.Src1)) || p.c.RegSecret(int(d.Src2))) {
		return cpu.Wait
	}
	return cpu.Proceed
}

func (p *prospectPolicy) OnForward(_, _ *cpu.DynInst) {}
