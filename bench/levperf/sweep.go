package main

import (
	"context"
	"fmt"
	"time"

	"levioso/internal/harness"
	"levioso/internal/obs"
	"levioso/internal/workloads"
)

// sweepLoad is the paper's evaluation shape: harness.Supervise over the
// suite kernels × the eval policies at SizeTest with Verify on and
// GOMAXPROCS workers. Serve, dispatch, the journal and per-request compiles
// are not on its path, so changes there should not move it.
type sweepLoad struct {
	spec  harness.Spec
	reg   *obs.Registry
	insts uint64 // committed simulated instructions, measured passes
}

func prepareSweep(_ context.Context, o *options) (instance, error) {
	spec := harness.DefaultSpec()
	spec.Size = workloads.SizeTest
	if n := o.sizes.sweepKernels; n > 0 {
		spec.Workloads = spec.Workloads[:n]
	}
	return &sweepLoad{spec: spec, reg: obs.NewRegistry()}, nil
}

// start compiles the suite kernels. A sweep has no long-lived system to
// start; building its programs is the step every Supervise call begins with.
func (l *sweepLoad) start(context.Context) error {
	for _, w := range l.spec.Workloads {
		if _, err := w.Build(l.spec.Size); err != nil {
			return err
		}
	}
	return nil
}

func (l *sweepLoad) stop() {}

// kernel runs one kernel's row of the sweep: harness.Supervise over the
// kernel and every eval policy. A pass runs the kernels one after another,
// which with one worker runs the same cells in the same order as one
// Supervise over the whole suite, and lets the timed phase pause for the
// yardstick between kernels.
func (l *sweepLoad) kernel(ctx context.Context, k int) (*harness.SweepResult, error) {
	spec := l.spec
	spec.Workloads = l.spec.Workloads[k : k+1]
	return harness.Supervise(obs.WithRegistry(ctx, l.reg), spec)
}

// warm runs the first kernel's row.
func (l *sweepLoad) warm(ctx context.Context) error {
	res, err := l.kernel(ctx, 0)
	if err != nil {
		return err
	}
	if len(res.Failures) > 0 {
		return res.Failures[0].Err
	}
	return nil
}

// measure runs whole passes until stop; the last pass may end after it.
func (l *sweepLoad) measure(ctx context.Context, stop time.Time, rec *recorder, tr *tracer) error {
	for time.Now().Before(stop) {
		t0 := time.Now()
		cells, failed := 0, 0
		for k := range l.spec.Workloads {
			err := rec.op(func() error {
				k0 := time.Now()
				res, err := l.kernel(ctx, k)
				if err != nil {
					return err
				}
				if tr != nil {
					tr.add(tr.id(), 0, 0, "sweep.kernel", k0, time.Now())
				}
				for _, r := range res.Runs {
					l.insts += r.Stats.Committed
				}
				cells += len(res.Runs)
				failed += len(res.Failures)
				return nil
			})
			if err != nil {
				return err
			}
		}
		rec.add(t0, time.Now(), cells+failed, failed)
	}
	return nil
}

// check: Verify already cross-checked the exit code and output of every
// cell against the reference model; failed cells are counted by measure.
func (l *sweepLoad) check() int { return 0 }

func (l *sweepLoad) stages() []stage {
	st := []stage{{reg: l.reg, family: "harness", stage: "cell", label: "harness.cell", parent: "sweep.kernel"}}
	return append(st, engineStages(l.reg, "", "harness.cell")...)
}

func (l *sweepLoad) layerMetrics() map[string]float64 { return nil }

func (l *sweepLoad) notes(elapsed time.Duration) []string {
	return []string{fmt.Sprintf("sim_minsts_per_s %.4g  committed simulated instructions per nominal second (%d cells per pass)",
		float64(l.insts)/elapsed.Seconds()/1e6, len(l.spec.Workloads)*len(l.spec.Policies))}
}
