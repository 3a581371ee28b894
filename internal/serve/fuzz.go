package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"levioso/internal/dispatch"
	"levioso/internal/fuzz"
	"levioso/internal/obs"
	"levioso/internal/simerr"
)

// The fuzz endpoints put coverage-guided campaigns behind the daemon:
//
//	POST /v1/fuzz                — start (or resume) a campaign, 202 + id
//	GET  /v1/fuzz/{id}           — live status and progress counters
//	GET  /v1/fuzz/{id}/findings  — finding buckets, served live from the
//	                               crash-safe campaign state file
//
// A campaign holds one worker slot of the coordinator every simulation runs
// through (dispatch.Coordinator.TryHold) for its whole life — a saturated
// pool answers 503 with the usual Retry-After envelope rather than queueing
// an hours-long job behind interactive requests. Campaign state lives under Config.FuzzDir/<id>, so
// re-POSTing a finished campaign's id with a larger count resumes it from
// its directory exactly like `levfuzz -campaign`.

// FuzzRequest is the JSON body of POST /v1/fuzz. Unknown top-level fields
// are rejected with 400, mirroring /v1/simulate. Everything funnels into
// fuzz.Options.Normalize — a request rejected here is rejected identically
// by the levfuzz command line.
type FuzzRequest struct {
	// ID names the campaign (and its state directory). Optional: the server
	// generates one. Re-using a finished campaign's id resumes it.
	ID           string   `json:"id,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	Count        int      `json:"count,omitempty"`
	Profiles     []string `json:"profiles,omitempty"`
	Policies     []string `json:"policies,omitempty"`
	MaxCycles    uint64   `json:"max_cycles,omitempty"`
	DeadlineMS   int64    `json:"deadline_ms,omitempty"`
	ShrinkBudget int      `json:"shrink_budget,omitempty"`
	NoShrink     bool     `json:"no_shrink,omitempty"`
	NoStorm      bool     `json:"no_storm,omitempty"`
	Blind        bool     `json:"blind,omitempty"`
}

// fuzzRequestFields lists the accepted FuzzRequest keys, for the
// unknown-field rejection message. Keep in sync with the struct tags above.
const fuzzRequestFields = "id, seed, count, profiles, policies, max_cycles, deadline_ms, shrink_budget, no_shrink, no_storm, blind"

// FuzzStatus is the JSON reply of POST /v1/fuzz and GET /v1/fuzz/{id}.
type FuzzStatus struct {
	SchemaVersion int           `json:"schema_version"`
	ID            string        `json:"id"`
	Status        string        `json:"status"` // running | done | failed
	Error         string        `json:"error,omitempty"`
	Progress      fuzz.Progress `json:"progress"`
	Summary       *FuzzSummary  `json:"summary,omitempty"` // once done
}

// FuzzSummary is the completed campaign's outcome on the wire.
type FuzzSummary struct {
	Cases        int   `json:"cases"`
	Resumed      int   `json:"resumed"`
	Skipped      int   `json:"skipped"`
	Execs        int   `json:"execs"`
	Mutated      int   `json:"mutated"`
	CoverageBits int   `json:"coverage_bits"`
	CorpusSize   int   `json:"corpus_size"`
	Findings     int   `json:"findings"`
	ElapsedMS    int64 `json:"elapsed_ms"`
}

// FuzzFindings is the JSON reply of GET /v1/fuzz/{id}/findings.
type FuzzFindings struct {
	SchemaVersion int                   `json:"schema_version"`
	ID            string                `json:"id"`
	Status        string                `json:"status"`
	Findings      []*fuzz.FindingBucket `json:"findings"`
}

// campaignRun is one campaign's lifecycle inside the server.
type campaignRun struct {
	id  string
	dir string

	mu       sync.Mutex
	status   string // running | done | failed
	err      string
	progress fuzz.Progress
	summary  *fuzz.CampaignSummary
}

func (c *campaignRun) snapshot() FuzzStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FuzzStatus{
		SchemaVersion: SchemaVersion,
		ID:            c.id,
		Status:        c.status,
		Error:         c.err,
		Progress:      c.progress,
	}
	if c.summary != nil {
		st.Summary = &FuzzSummary{
			Cases:        c.summary.Cases,
			Resumed:      c.summary.Resumed,
			Skipped:      c.summary.Skipped,
			Execs:        c.summary.Execs,
			Mutated:      c.summary.Mutated,
			CoverageBits: c.summary.CoverageBits,
			CorpusSize:   c.summary.CorpusSize,
			Findings:     c.summary.FindingCount,
			ElapsedMS:    c.summary.Elapsed.Milliseconds(),
		}
	}
	return st
}

// fuzzDir resolves the campaign base directory.
func (s *Server) fuzzDir() string {
	if s.cfg.FuzzDir != "" {
		return s.cfg.FuzzDir
	}
	return filepath.Join(os.TempDir(), "levserve-fuzz")
}

// validCampaignID keeps ids safe as directory names: nonempty, bounded, one
// path segment, no dotfiles.
func validCampaignID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

func decodeFuzzRequest(body io.Reader, fr *FuzzRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(fr); err != nil {
		if strings.Contains(err.Error(), "unknown field") {
			return simerr.New(simerr.KindBuild,
				"serve: %v (accepted fields: %s)", err, fuzzRequestFields)
		}
		return err
	}
	return nil
}

// options translates the wire request into normalized campaign options.
// A campaign holds exactly one coordinator slot, so it judges on one
// goroutine; the state file is the same for any worker count.
func (fr *FuzzRequest) options() (fuzz.Options, error) {
	opt := fuzz.Options{
		Workers:      1,
		Seed:         fr.Seed,
		Count:        fr.Count,
		Policies:     fr.Policies,
		MaxCycles:    fr.MaxCycles,
		ShrinkBudget: fr.ShrinkBudget,
		NoShrink:     fr.NoShrink,
		NoStorm:      fr.NoStorm,
		Blind:        fr.Blind,
	}
	for _, p := range fr.Profiles {
		opt.Profiles = append(opt.Profiles, fuzz.Profile(p))
	}
	if fr.DeadlineMS < 0 {
		return opt, simerr.New(simerr.KindBuild, "serve: negative deadline_ms %d", fr.DeadlineMS)
	}
	opt.Deadline = time.Duration(fr.DeadlineMS) * time.Millisecond
	err := opt.Normalize()
	return opt, err
}

func (s *Server) handleFuzzStart(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)

	var fr FuzzRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	if err := decodeFuzzRequest(body, &fr); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				simerr.New(simerr.KindBuild, "serve: request body exceeds %d bytes", mbe.Limit))
			return
		}
		if simerr.KindOf(err) == simerr.KindUnknown {
			err = simerr.New(simerr.KindBuild, "serve: bad request body: %v", err)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt, err := fr.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := fr.ID
	if id == "" {
		id = fmt.Sprintf("fz%s-%04d", s.idBase, s.idSeq.Add(1))
	} else if !validCampaignID(id) {
		writeError(w, http.StatusBadRequest,
			simerr.New(simerr.KindBuild, "serve: invalid campaign id %q (one path segment of [A-Za-z0-9._-], not starting with a dot)", id))
		return
	}

	s.fuzzMu.Lock()
	if prev, ok := s.fuzzRuns[id]; ok {
		prev.mu.Lock()
		running := prev.status == "running"
		prev.mu.Unlock()
		if running {
			s.fuzzMu.Unlock()
			writeError(w, http.StatusConflict,
				simerr.New(simerr.KindBuild, "serve: fuzz campaign %q is already running", id))
			return
		}
		// A finished campaign's id may be re-POSTed: the new run resumes
		// from the same directory (the state-file digest rejects option
		// mismatches).
	}

	// One worker slot for the campaign's whole life, acquired non-blocking:
	// a full pool answers 503 now rather than parking an hours-long job.
	release, ok := s.dispatch.TryHold()
	if !ok {
		s.fuzzMu.Unlock()
		s.writeEngineError(w, &simerr.RunError{
			Kind:   simerr.KindDeadline,
			Detail: "serve: no worker slot free for a fuzz campaign",
			Err:    dispatch.ErrQueueTimeout,
		})
		return
	}

	run := &campaignRun{id: id, dir: filepath.Join(s.fuzzDir(), id), status: "running"}
	s.fuzzRuns[id] = run
	s.fuzzMu.Unlock()

	opt.Progress = func(p fuzz.Progress) {
		run.mu.Lock()
		run.progress = p
		run.mu.Unlock()
	}

	go func() {
		// The campaign's obs instruments (fuzz_campaign_*) land in this
		// server's registry, so /metrics reports coverage growth, executions
		// and finding throughput live.
		ctx := obs.WithRegistry(s.fuzzCtx, s.reg)
		sum, err := fuzz.Campaign(ctx, run.dir, opt)
		// The slot goes back before the status flips: a client that sees
		// the campaign finished can start the next one at once.
		release()
		run.mu.Lock()
		defer run.mu.Unlock()
		if err != nil {
			s.failures.Add(1)
			run.status, run.err = "failed", err.Error()
			return
		}
		run.status, run.summary = "done", sum
	}()

	writeJSON(w, http.StatusAccepted, run.snapshot())
}

// lookupFuzz resolves {id} or answers the 404 envelope itself.
func (s *Server) lookupFuzz(w http.ResponseWriter, r *http.Request) *campaignRun {
	id := r.PathValue("id")
	s.fuzzMu.Lock()
	run, ok := s.fuzzRuns[id]
	s.fuzzMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound,
			simerr.New(simerr.KindBuild, "serve: unknown fuzz campaign %q", id))
		return nil
	}
	return run
}

func (s *Server) handleFuzzStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	run := s.lookupFuzz(w, r)
	if run == nil {
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

func (s *Server) handleFuzzFindings(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	run := s.lookupFuzz(w, r)
	if run == nil {
		return
	}
	buckets, err := fuzz.LoadFindings(run.dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if buckets == nil {
		buckets = []*fuzz.FindingBucket{}
	}
	st := run.snapshot()
	writeJSON(w, http.StatusOK, FuzzFindings{
		SchemaVersion: SchemaVersion,
		ID:            st.ID,
		Status:        st.Status,
		Findings:      buckets,
	})
}
