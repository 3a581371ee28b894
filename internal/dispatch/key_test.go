package dispatch

import (
	"context"
	"testing"

	"levioso/internal/engine"
	"levioso/internal/obs"
)

// TestCoordinatorAndDaemonKeysAgree: the worker daemon keys a frame under
// the key the coordinator gave the cell it came from, for a cell built from
// a binary image and for one built from source.
func TestCoordinatorAndDaemonKeysAgree(t *testing.T) {
	prog := testProgram(t)
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, cell := range map[string]*Cell{
		"binary": {Name: "cell.lc", Program: prog, Image: img},
		"source": {Name: "cell.lc", Program: prog},
	} {
		cell.Overrides = engine.Overrides{Policy: "levioso", ROBSize: 96}
		cell.Verify = true
		if err := cell.Overrides.Normalize(); err != nil {
			t.Fatal(err)
		}
		key, ok := resultKey(ctx, cell)
		if !ok {
			t.Fatalf("%s cell is not keyable", name)
		}
		req, err := cell.request()
		if err != nil {
			t.Fatal(err)
		}
		cache := newResultCache(8)
		if resp := runWireRequest(ctx, req, cache); resp.Error != nil {
			t.Fatalf("%s frame failed: %+v", name, resp.Error)
		}
		if _, ok := cache.Get(key); !ok {
			t.Errorf("%s cell: the daemon cached its result under another key than the coordinator's", name)
		}
	}
}

// TestDaemonCacheHitSkipsLoad: a repeat frame is answered from the daemon
// cache without loading its image — one engine.load observation for two
// frames.
func TestDaemonCacheHitSkipsLoad(t *testing.T) {
	prog := testProgram(t)
	req, err := (&Cell{Name: "cell.lc", Program: prog, Overrides: engine.Overrides{Policy: "levioso"}}).request()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	cache := newResultCache(8)
	loads := func() uint64 {
		return reg.HistogramVec("engine_stage_seconds", "", obs.LatencyBuckets(), "stage", "outcome").
			With("load", obs.OutcomeOK).Snapshot().Count
	}
	first := runWireRequest(ctx, req, cache)
	if first.Error != nil || first.Cached {
		t.Fatalf("first frame: %+v", first)
	}
	if n := loads(); n != 1 {
		t.Fatalf("first frame loaded its image %d times, want 1", n)
	}
	again := runWireRequest(ctx, req, cache)
	if again.Error != nil || !again.Cached || again.Exit != first.Exit || *again.Stats != *first.Stats {
		t.Fatalf("repeat frame not answered from the cache: %+v", again)
	}
	if n := loads(); n != 1 {
		t.Errorf("a daemon cache hit loaded the image (%d loads for two frames)", n)
	}
}

// TestImageCellKeyAllocs bounds keying a cell that carries its image: it
// hashes the bytes it holds — a handful of small allocations for the hash
// and the hex key — and never re-encodes the program.
func TestImageCellKeyAllocs(t *testing.T) {
	prog := testProgram(t)
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cell := &Cell{Name: "cell.lc", Program: prog, Image: img, Overrides: engine.Overrides{Policy: "levioso"}}
	if err := cell.Overrides.Normalize(); err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithRegistry(context.Background(), obs.NewRegistry())
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := resultKey(ctx, cell); !ok {
			t.Fatal("cell not keyable")
		}
	})
	if allocs > 10 {
		t.Errorf("keying an image cell costs %.0f allocations, want at most 10", allocs)
	}
}
