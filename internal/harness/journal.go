package harness

import (
	"encoding/json"
	"fmt"
	"sync"

	"levioso/internal/cpu"
	"levioso/internal/journal"
)

// Journal is an append-only JSON-lines record of completed sweep cells. Each
// line is one journalEntry; a sweep that was interrupted (crash, ^C, power
// loss) reopens the same file and resumes, skipping every cell already
// recorded. Entries are keyed by cell identity (the engine.CacheKey of the
// program, canonical policy, core configuration and run mode), so one
// journal file can carry a whole levbench invocation, and a cell completed
// for one experiment counts for every experiment that reads it. The workload
// and policy are kept as labels. A line without a key (an older journal's)
// is ignored, and its cell re-runs.
//
// The journal deliberately stores the run's statistics, not just its
// identity, so resumed cells rebuild their reports without re-simulating.
// Durability mechanics (single-write appends, fsync per record, torn-tail
// healing) live in internal/journal; this wrapper owns the cell schema.
type Journal struct {
	mu   sync.Mutex
	f    *journal.File
	seen map[string]Run
}

type journalEntry struct {
	Key      string    `json:"key"`
	Workload string    `json:"workload"`
	Policy   string    `json:"policy"`
	ExitCode uint64    `json:"exit"`
	Stats    cpu.Stats `json:"stats"`
}

// OpenJournal opens (creating if absent) the run journal at path and loads
// every completed cell recorded by earlier invocations.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{seen: make(map[string]Run)}
	f, err := journal.Open(path, func(line []byte) {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			return // foreign or keyless line: ignore, the cell just re-runs
		}
		j.seen[e.Key] = Run{
			Workload: e.Workload, Policy: e.Policy,
			Stats: e.Stats, ExitCode: e.ExitCode,
		}
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	j.f = f
	return j, nil
}

// Lookup returns the run recorded under a cell key, if any.
func (j *Journal) Lookup(key string) (Run, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.seen[key]
	return r, ok
}

// Record appends one completed cell and remembers it for Lookup. Safe for
// concurrent use by the sweep goroutines; the append is fsynced before
// Record returns, so a power loss can lose at most the entry being written —
// never previously recorded cells.
func (j *Journal) Record(key string, r Run) error {
	if err := j.f.Append(journalEntry{
		Key: key, Workload: r.Workload, Policy: r.Policy,
		ExitCode: r.ExitCode, Stats: r.Stats,
	}); err != nil {
		return err
	}
	j.mu.Lock()
	j.seen[key] = r
	j.mu.Unlock()
	return nil
}

// Sync flushes the journal to stable storage. Record already fsyncs after
// every append; Sync exists for callers that want an explicit durability
// point (e.g. before reporting a sweep as resumable).
func (j *Journal) Sync() error { return j.f.Sync() }

// Len returns the number of recorded cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Close flushes and closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }
