package secure

import (
	"sync"
	"testing"

	"levioso/internal/cpu"
	"levioso/internal/isa"
	"levioso/internal/workloads"
)

// pinRun is one line of the pinned matrix: indexes into pinKernels() and
// SweepSpecs(), and the coverage setting.
type pinRun struct {
	kernel, spec int
	cov          bool
}

// recycleOrder orders the kernels × specs × coverage matrix so that every
// run differs from the one before it in kernel, spec and coverage setting.
// Coverage alternates; the runs without coverage walk the (kernel, spec)
// grid row by row, and each run with coverage takes the pair two kernels
// and two specs further on. That needs at least three kernels and specs.
func recycleOrder(kernels, specs int) []pinRun {
	var out []pinRun
	for m := range kernels * specs {
		k, s := m/specs, m%specs
		out = append(out,
			pinRun{kernel: k, spec: s},
			pinRun{kernel: (k + 2) % kernels, spec: (s + 2) % specs, cov: true})
	}
	return out
}

// runRecycled runs one pinned line on a core from cpu.New, releases the
// core, and returns the line and the core's address.
func runRecycled(t *testing.T, ws []workloads.Workload, progs []*isa.Program, specs []string, r pinRun) (string, *cpu.Core) {
	cfg := cpu.DefaultConfig()
	var sink cpu.CoverageSink
	if r.cov {
		cfg.Coverage = &sink
	}
	c, err := cpu.New(progs[r.kernel], cfg, MustNew(specs[r.spec]))
	if err != nil {
		t.Error(err)
		return "", nil
	}
	res, err := c.Run()
	c.Release()
	if err != nil {
		t.Errorf("%s under %s: %v", ws[r.kernel].Name, specs[r.spec], err)
		return "", nil
	}
	return pinLine(ws[r.kernel].Name, specs[r.spec], r.cov, res, &sink), c
}

func pinMatrix(t *testing.T) ([]workloads.Workload, []*isa.Program, []string) {
	ws := pinKernels()
	progs := make([]*isa.Program, len(ws))
	for i, w := range ws {
		progs[i] = w.MustBuild(workloads.SizeTest)
	}
	specs := SweepSpecs()
	if len(ws) < 3 || len(specs) < 3 {
		t.Fatalf("recycleOrder needs three kernels and specs, have %d and %d", len(ws), len(specs))
	}
	return ws, progs, specs
}

// TestRecycledCoreMatchesPins runs the pinned matrix through New, Run and
// Release in an order where each line runs on the core the line before
// released, last used by a different kernel, spec and coverage setting.
// Every line must still equal its pin: a recycled core carries nothing of
// its previous run into the next.
func TestRecycledCoreMatchesPins(t *testing.T) {
	if raceEnabled {
		// The pin subset alone takes minutes under the detector;
		// TestRecycledCoresConcurrent recycles cores under it instead.
		t.Skip("too slow under the race detector")
	}
	want := loadPins(t)
	ws, progs, specs := pinMatrix(t)
	order := recycleOrder(len(ws), len(specs))
	var prev *cpu.Core
	recycled := 0
	for _, r := range order {
		got, c := runRecycled(t, ws, progs, specs, r)
		if c == nil {
			continue
		}
		if c == prev {
			recycled++
		}
		prev = c
		if exp := want[pinKey(got)]; got != exp {
			t.Errorf("recycled core changed the result:\n got  %s\n want %s", got, exp)
		}
	}
	// sync.Pool may drop a released core, so not every line reuses the
	// last one; most must.
	if recycled < len(order)/2 {
		t.Errorf("only %d of %d runs reused the previous run's core", recycled, len(order))
	}
}

// TestRecycledCoresConcurrent shares the core pool between four goroutines,
// each running New, Run and Release over its share of the pinned lines of
// the three-kernel subset. Run it under -race, where it takes every third
// line (every kernel and both coverage settings still occur) to keep the
// package inside its test timeout.
func TestRecycledCoresConcurrent(t *testing.T) {
	want := loadPins(t)
	ws, progs, specs := pinMatrix(t)
	order := recycleOrder(min(len(ws), pinSubsetKernels), len(specs))
	if raceEnabled {
		var third []pinRun
		for i := 0; i < len(order); i += 3 {
			third = append(third, order[i])
		}
		order = third
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(order); i += workers {
				got, c := runRecycled(t, ws, progs, specs, order[i])
				if c == nil {
					continue
				}
				if exp := want[pinKey(got)]; got != exp {
					t.Errorf("concurrently recycled core changed the result:\n got  %s\n want %s", got, exp)
				}
			}
		}()
	}
	wg.Wait()
}
