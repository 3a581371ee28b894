package secure

import (
	"levioso/internal/core"
	"levioso/internal/cpu"
)

// trackingPolicy implements the dependency-tracking policies over the Branch
// Dependency Table and the per-physical-register mask file:
//
//   - levioso:      ctrl=true,  data=true   (true control + data dependencies)
//   - levioso-ctrl: ctrl=true,  data=false  (ablation: control only)
//   - taint:        ctrl=false, data=true   (STT-class: dataflow from
//     speculative loads only; sandbox threat model)
//
// Mask discipline: OnRename snapshots the control component (open regions for
// Levioso, nothing for taint) into WaitMask; the core clears WaitMask bits as
// branches resolve. The full dependency mask — control | source-register
// masks — is evaluated at issue time, when source masks are final (a source's
// mask can only change before its value becomes ready, and Decide runs only
// once operands are ready). On Proceed the instruction's destination mask is
// published for its consumers.
type trackingPolicy struct {
	name string
	trackingOpts

	c   *cpu.Core
	dep *core.DepState
}

// trackingOpts selects the tracking mechanism explicitly (the registry
// builds several named configurations over the same implementation):
// ctrl gates on open annotated control regions, data propagates masks
// through register dataflow, loadsTaint makes every speculative load's
// result depend on all branches it ran under (the STT model), and
// ghostLoads executes a truly-dependent load invisibly (no cache state
// change, exposure+validation when safe) instead of stalling it — the
// levioso-ghost extension. Divider/flush transmitters always wait.
type trackingOpts struct {
	ctrl       bool
	data       bool
	loadsTaint bool
	ghostLoads bool
}

func newTracking(name string, opts trackingOpts) *trackingPolicy {
	return &trackingPolicy{name: name, trackingOpts: opts}
}

func (p *trackingPolicy) Name() string { return p.name }

func (p *trackingPolicy) Attach(c *cpu.Core) {
	p.c = c
	p.dep = core.NewDepState(c.Config().NumPhysRegs)
}

func (p *trackingPolicy) Reset() {
	if p.dep != nil {
		p.dep.Reset()
	}
}

func (p *trackingPolicy) OnRename(d *cpu.DynInst) {
	if p.ctrl {
		d.WaitMask = p.c.BT.OpenMask()
	}
	if p.loadsTaint && d.IsLoad() {
		// The load's result is speculative under every branch in flight at
		// its rename; the core clears these bits as branches resolve, so by
		// issue time DataMask holds exactly the still-unresolved set.
		d.DataMask = p.c.BT.Unresolved()
	}
}

func (p *trackingPolicy) Decide(d *cpu.DynInst) cpu.Decision {
	m := d.WaitMask
	if p.data {
		if d.Src1 >= 0 {
			m |= p.dep.Get(int(d.Src1))
		}
		if d.Src2 >= 0 {
			m |= p.dep.Get(int(d.Src2))
		}
	}
	decision := cpu.Proceed
	if d.IsTransmitter() && m != 0 {
		if p.ghostLoads && d.IsLoad() {
			decision = cpu.ProceedInvisible
		} else {
			return cpu.Wait
		}
	}
	if p.data {
		out := m
		if p.loadsTaint && d.IsLoad() {
			out |= d.DataMask
		}
		d.DataMask = out
		if d.Dst >= 0 {
			p.dep.Set(int(d.Dst), out)
		}
	}
	return decision
}

// OnForward propagates the forwarding store's value dependencies into the
// load's result: consumers of the load issue strictly after the load
// completes, so publishing here is early enough.
func (p *trackingPolicy) OnForward(load, store *cpu.DynInst) {
	if !p.data {
		return
	}
	m := load.DataMask | store.DataMask
	load.DataMask = m
	if load.Dst >= 0 {
		p.dep.Set(int(load.Dst), m)
	}
}

func (p *trackingPolicy) OnSlotResolved(slot int) {
	p.dep.ClearSlot(slot)
}

func (p *trackingPolicy) OnSquash(*cpu.DynInst) {}
