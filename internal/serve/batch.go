package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"levioso/internal/cpu"
	"levioso/internal/dispatch"
	"levioso/internal/engine"
	"levioso/internal/simerr"
)

// BatchRequest is the JSON body of POST /v1/batch: many simulate cells in
// one request. Each cell accepts the SimRequest fields (except ref: a batch
// line has no field for a reference run's instruction count). The whole
// batch is admitted or shed atomically — a batch never loses half its cells
// to admission control partway through — so a batch larger than the
// coordinator's queue depth, which no queue state could ever admit, is a
// permanent 400 rather than a retryable 503.
type BatchRequest struct {
	Cells []SimRequest `json:"cells"`
}

// BatchCellResult is one NDJSON line of the /v1/batch response stream,
// emitted in completion order as cells finish. Index identifies the cell in
// the request's cells array; exactly one of the result fields or Error is
// meaningful.
type BatchCellResult struct {
	Index     int        `json:"index"`
	Exit      uint64     `json:"exit,omitempty"`
	Output    string     `json:"output,omitempty"`
	Stats     *cpu.Stats `json:"stats,omitempty"`
	Cached    bool       `json:"cached,omitempty"`
	Error     *ErrorBody `json:"error,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

// BatchTrailer is the final NDJSON line: the batch-level summary. Its
// "done" key is how clients distinguish it from cell lines (and detect a
// truncated stream when it never arrives).
type BatchTrailer struct {
	Done          bool  `json:"done"`
	SchemaVersion int   `json:"schema_version"`
	Completed     int   `json:"completed"`
	Failed        int   `json:"failed"`
	ElapsedMS     int64 `json:"elapsed_ms"`
}

// handleBatch runs POST /v1/batch: decode strictly, admit the whole batch
// (or shed with Retry-After), fan the cells out through the dispatch
// coordinator, and stream one NDJSON line per cell as it completes, trailer
// last. A client that disconnects keeps every line already streamed —
// partial results are the contract, not an error — and its departure
// cancels the remaining cells.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()
	if r.ContentLength >= 0 {
		s.mBodyBytes.Observe(float64(r.ContentLength))
	}

	var br BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&br); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				simerr.New(simerr.KindBuild, "serve: request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest,
			simerr.New(simerr.KindBuild, "serve: bad batch body: %v", err))
		return
	}
	n := len(br.Cells)
	if n == 0 {
		writeError(w, http.StatusBadRequest,
			simerr.New(simerr.KindBuild, "serve: batch has no cells"))
		return
	}
	if limit := s.dispatch.QueueDepth(); limit >= 0 && n > limit {
		writeError(w, http.StatusBadRequest,
			simerr.New(simerr.KindBuild, "serve: batch of %d cells exceeds the %d-cell limit", n, limit))
		return
	}

	// Whole-batch admission: shed now, with backpressure hints, or own
	// capacity for every cell until the stream ends. The cells are granted
	// worker slots in index order.
	adm, err := s.dispatch.Admit(n)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	defer adm.Release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Fan out. The channel is buffered to the batch size so cell goroutines
	// can always deliver and exit, even if the client hangs up and the
	// writer loop below stops consuming.
	lines := make(chan BatchCellResult, n)
	var wg sync.WaitGroup
	for i, cell := range br.Cells {
		wg.Add(1)
		go func(i int, cell SimRequest) {
			defer wg.Done()
			line := s.runBatchCell(r, adm, i, cell)
			adm.Withdraw(i) // a cell that failed before dispatch holds up no one
			lines <- line
		}(i, cell)
	}
	go func() {
		wg.Wait()
		close(lines)
	}()

	enc := json.NewEncoder(w)
	completed, failed := 0, 0
	clientGone := false
	for line := range lines {
		if line.Error != nil {
			failed++
			s.failures.Add(1)
		} else {
			completed++
		}
		if clientGone {
			continue // keep draining so the counters stay truthful
		}
		if err := enc.Encode(line); err != nil {
			// The client hung up mid-stream: everything already flushed is
			// theirs to keep. Returning from the handler cancels
			// r.Context(), which reels the remaining cells in fast; the
			// buffered channel lets their goroutines finish regardless.
			clientGone = true
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !clientGone {
		enc.Encode(BatchTrailer{
			Done:          true,
			SchemaVersion: SchemaVersion,
			Completed:     completed,
			Failed:        failed,
			ElapsedMS:     time.Since(start).Milliseconds(),
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runBatchCell resolves and executes one batch cell, rendering its stream
// line. Build failures (bad source, unknown policy, ref requests) are
// per-cell errors — one broken cell never takes the batch down.
func (s *Server) runBatchCell(r *http.Request, adm *dispatch.Admission, index int, sr SimRequest) BatchCellResult {
	start := time.Now()
	fail := func(err error) BatchCellResult {
		return BatchCellResult{
			Index: index,
			Error: &ErrorBody{
				Kind:      simerr.KindOf(err).String(),
				Message:   err.Error(),
				Retryable: simerr.Transient(err),
			},
			ElapsedMS: time.Since(start).Milliseconds(),
		}
	}
	if sr.Ref {
		return fail(simerr.New(simerr.KindBuild, "serve: batch cells cannot request the reference model"))
	}
	req, err := sr.engineRequest()
	if err != nil {
		return fail(err)
	}
	prog, _, err := engine.Resolve(r.Context(), &req)
	if err != nil {
		return fail(err)
	}

	ov := req.Overrides
	if sr.DeadlineMS > 0 {
		ov.Deadline = time.Duration(sr.DeadlineMS) * time.Millisecond
	} else if s.cfg.DefaultDeadline > 0 {
		ov.Deadline = s.cfg.DefaultDeadline
	}
	res, err := adm.Execute(r.Context(), index, &dispatch.Cell{
		Name:      req.Name,
		Program:   prog,
		Image:     req.Binary,
		Overrides: ov,
		Verify:    req.Verify,
	})
	if err != nil {
		return fail(err)
	}
	stats := res.Stats
	return BatchCellResult{
		Index:     index,
		Exit:      res.ExitCode,
		Output:    res.Output,
		Stats:     &stats,
		Cached:    res.Cached,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
}
