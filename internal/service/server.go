package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/run"
)

// routes builds the daemon's HTTP surface.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/experiment", s.instrument("experiment", s.handleExperiment))
	return mux
}

// instrument wraps a handler with request counting and the
// per-endpoint latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.countReq(endpoint)
		h(w, r)
		s.lat.observe(endpoint, time.Since(start))
	}
}

// clientID is the fair-scheduling identity of a request: the
// X-Reprod-Client header when set (one logical client across
// connections), otherwise the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Reprod-Client"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// wantStream reports whether the request asked for SSE progress.
func wantStream(r *http.Request) bool {
	return r.URL.Query().Get("stream") != "" || r.Header.Get("Accept") == "text/event-stream"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError maps a failure to its HTTP shape: queue-full →
// 429 + Retry-After, client-gone → nothing (the connection is dead),
// a body past maxBodyBytes → 413, everything else → the given status
// with a JSON envelope.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: err.Error()})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.sched.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() == nil {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		}
		// Client disconnected: nobody is listening.
	default:
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
	}
}

// maxBodyBytes bounds what the daemon will read of one request. The
// largest legitimate body is a few hundred bytes of spec or options.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// admit refuses, with the request named by what, a request whose runs
// Runner.Check refuses (DESIGN.md §13), before anything is looked up or
// queued, so no worker is handed a run that cannot start.
func (s *Server) admit(what string, specs ...run.Spec) error {
	if err := s.runner.Check(specs...); err != nil {
		return fmt.Errorf("service: %s: %w", what, err)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleRun resolves a single spec. The spec itself is probed first; a
// sweep spec's baseline is resolved (cached like any run) only when the
// point has to be computed, so a stored point is one load and does not
// depend on its baseline's entry. No answer decodes a stored result: a
// minimal one is made of the entry's head alone, and a full one forwards
// the verified result bytes (writeForwarded).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	spec, err := req.SpecJSON.Spec()
	if err == nil {
		err = s.admit("run", spec)
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	client := clientID(r)
	ctx := r.Context()
	start := time.Now()
	hash := spec.Hash()
	var base baseFunc
	if !spec.IsBaseline() {
		base = func() (run.Outcome, error) {
			// Not under the request's context: other requests may be
			// waiting on this point by the time the client gives up.
			b := spec.BaselineSpec(false)
			bout, _, _, err := s.resolve(context.WithoutCancel(ctx), client, b, b.Hash(), nil)
			return bout, err
		}
	}
	out, hit, src, err := s.resolve(ctx, client, spec, hash, base)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if out.Err != nil {
		s.writeError(w, r, http.StatusInternalServerError, out.Err)
		return
	}
	resp := RunResponse{
		Spec:      SpecToJSON(out.Spec),
		Hash:      hash,
		Source:    src,
		Cached:    src != SourceComputed,
		WallUs:    time.Since(start).Microseconds(),
		Point:     pointToJSON(out.Point),
		ElapsedNs: int64(out.Res.Elapsed),
		Verified:  out.Res.Verified,
	}
	switch {
	case req.Minimal:
	case hit != nil:
		s.writeForwarded(w, r, resp, hit.result)
		return
	default:
		res := out.Res
		resp.Result = &res
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeForwarded answers a full disk hit: resp, whose nil Result is
// omitted, with the entry's verified result bytes spliced in as its
// last member. Store encoded them as writeJSON encodes a result, so the
// body is byte for byte the one the computed answer had, and nothing is
// decoded or encoded but resp's own few fields.
func (s *Server) writeForwarded(w http.ResponseWriter, r *http.Request, resp RunResponse, result []byte) {
	head, err := encodeJSON(resp)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	const member = `,"result":`
	body := make([]byte, 0, len(head)+len(member)+len(result)+2)
	body = append(body, head[:len(head)-1]...) // up to resp's closing brace
	body = append(body, member...)
	body = append(body, result...)
	body = append(body, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleSweep resolves an app × knob × values matrix, optionally
// streaming per-run progress over SSE.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Values) == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("service: sweep needs values"))
		return
	}
	k, err := run.ParseKnob(req.Knob)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if k == core.KnobNone {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("service: sweep needs a knob (o, g, L, bw)"))
		return
	}
	p := run.NewPlan()
	specs := make([]run.Spec, len(req.Values))
	var baseSpec run.Spec
	for i, v := range req.Values {
		sp := run.Spec{
			App: req.App, Procs: req.Procs, Scale: req.Scale, Seed: req.Seed,
			Knob: k, Value: v, CPUSpeedup: req.CPUSpeedup,
		}
		if c := req.Coll; c != nil {
			sp.Coll.Barrier, sp.Coll.Broadcast, sp.Coll.AllReduce = c.Barrier, c.Broadcast, c.AllReduce
		}
		// AddSweep declares the (coll-preserving) baseline dependency.
		specs[i] = p.AddSweep(sp, req.Verify)
		if i == 0 {
			baseSpec = specs[i].BaselineSpec(req.Verify)
		}
	}
	if err := s.admit("sweep", p.Specs()...); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}

	build := func(pr *planResult) (*SweepResponse, error) {
		bout, ok := pr.store.Get(baseSpec)
		if !ok {
			return nil, fmt.Errorf("service: baseline missing after sweep")
		}
		if bout.Err != nil {
			return nil, bout.Err
		}
		resp := &SweepResponse{
			App: req.App, Knob: req.Knob,
			Baseline: pointToJSON(bout.Point),
			BaseHash: baseSpec.Hash(),
			Cache:    pr.counts,
		}
		for _, sp := range specs {
			out, ok := pr.store.Get(sp)
			if !ok {
				return nil, fmt.Errorf("service: point %v missing after sweep", sp)
			}
			if out.Err != nil {
				return nil, out.Err
			}
			hash := sp.Hash()
			resp.Points = append(resp.Points, SweepPoint{
				PointJSON: pointToJSON(out.Point),
				Hash:      hash,
				Source:    pr.sources[hash],
			})
		}
		return resp, nil
	}
	s.servePlan(w, r, p, func(pr *planResult) (any, error) { return build(pr) })
}

// handleExperiment plans, resolves, and renders one paper artifact.
// The rendered text is byte-identical to cmd/repro's offline output for
// the same options, whether the runs computed or came from the cache.
// A stored run is decoded only if the render reads its full result
// (executePlan).
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	opts := req.Options.options()
	p, err := exp.PlanFor([]string{req.ID}, opts)
	if err == nil {
		err = s.admit(fmt.Sprintf("experiment %q", req.ID), p.Specs()...)
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	s.servePlan(w, r, p, func(pr *planResult) (any, error) {
		tab, err := exp.Render(req.ID, opts, pr.store)
		if err != nil {
			return nil, err
		}
		return &ExperimentResponse{
			ID: req.ID,
			Table: TableJSON{
				ID: tab.ID, Title: tab.Title,
				Columns: tab.Columns, Rows: tab.Rows, Notes: tab.Notes,
			},
			Text:  tab.Text(),
			CSV:   tab.CSV(),
			Cache: pr.counts,
		}, nil
	})
}

// servePlan executes a plan for a request and writes the response
// built by finish, either plain JSON or as an SSE progress stream
// terminated by a result (or error) event.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, p *run.Plan, finish func(*planResult) (any, error)) {
	respond := func(onEvent func(PlanEvent)) (any, error) {
		pr, err := s.executePlan(r.Context(), clientID(r), p, onEvent)
		if err != nil {
			return nil, err
		}
		return finish(pr)
	}
	if !wantStream(r) {
		resp, err := respond(nil)
		if err != nil {
			s.writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	emit, err := sseWriter(w)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp, err := respond(func(ev PlanEvent) { _ = emit("progress", ev) })
	if err != nil {
		_ = emit("error", ErrorResponse{Error: err.Error()})
		return
	}
	_ = emit("result", resp)
}

// sseWriter prepares a Server-Sent Events stream and returns an
// emitter. Every event is flushed immediately: progress is the point.
func sseWriter(w http.ResponseWriter) (func(event string, v any) error, error) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("service: response writer cannot stream")
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return func(event string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}, nil
}
