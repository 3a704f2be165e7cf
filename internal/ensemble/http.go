package ensemble

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"foam/internal/core"
	"foam/internal/scenario"
)

// The HTTP/JSON API of foam-serve. A request body is exactly one JSON value
// (body.go reads and parses it). Checkpoints travel as version-1 checkpoint
// containers (core.Checkpoint.Save: versioned, checksummed) in base64, as
// encoding/json writes a []byte, so a SnapshotResponse can be POSTed back
// verbatim as a CreateRequest to resume a member — on the same server or
// another one. A checkpoint that is malformed, corrupt or from another
// resolution is a 400, never a panic and never a partly restored member.
//
//	POST   /v1/members              create from a config (or resume, with a checkpoint)
//	GET    /v1/members              list
//	GET    /v1/members/{id}         member info
//	DELETE /v1/members/{id}         delete
//	POST   /v1/members/{id}/advance {"intervals":k} or {"steps":n}
//	GET    /v1/members/{id}/diag    diagnostics + water budget + timings
//	GET    /v1/members/{id}/sst     SST map on the ocean grid
//	POST   /v1/members/{id}/snapshot checkpoint + config (resume body)
//	POST   /v1/members/{id}/fork    clone via the checkpoint round-trip
//	GET    /v1/scenarios            the named scenario registry (table rows)
//	POST   /v1/scenarios/{name}/members create a member from a named scenario
//	GET    /v1/stats                scheduler counters
//	GET    /v1/healthz              liveness
//
// Status codes: 400 malformed or invalid request, 404 unknown member,
// 409 member busy (e.g. concurrent advance), 429 member limit, 503 closed.

// CreateRequest creates a member from Config (required; named
// configurations go through POST /v1/scenarios/{name}/members), with
// OceanLag and Flat overriding its fields when set. A non-empty Checkpoint
// resumes from a snapshot taken with a matching config.
type CreateRequest struct {
	Config     *core.Config `json:"config,omitempty"`
	OceanLag   *int         `json:"ocean_lag,omitempty"`
	Flat       *bool        `json:"flat,omitempty"`
	Checkpoint []byte       `json:"checkpoint,omitempty"`
}

// AdvanceRequest advances a member by whole coupling intervals or raw
// atmosphere steps; exactly one of the two must be positive.
type AdvanceRequest struct {
	Intervals int `json:"intervals,omitempty"`
	Steps     int `json:"steps,omitempty"`
}

// SnapshotResponse is a self-contained resume ticket: POST it back to
// /v1/members (it is a valid CreateRequest) to rebuild the member.
type SnapshotResponse struct {
	Info       Info        `json:"info"`
	Config     core.Config `json:"config"`
	Checkpoint []byte      `json:"checkpoint"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// NewHandler serves the ensemble API over a scheduler.
func NewHandler(s *Scheduler) http.Handler {
	h := &handler{s: s}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", h.healthz)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("POST /v1/members", h.create)
	mux.HandleFunc("GET /v1/members", h.list)
	mux.HandleFunc("GET /v1/members/{id}", h.info)
	mux.HandleFunc("DELETE /v1/members/{id}", h.delete)
	mux.HandleFunc("POST /v1/members/{id}/advance", h.advance)
	mux.HandleFunc("GET /v1/members/{id}/diag", h.diag)
	mux.HandleFunc("GET /v1/members/{id}/sst", h.sst)
	mux.HandleFunc("POST /v1/members/{id}/snapshot", h.snapshot)
	mux.HandleFunc("POST /v1/members/{id}/fork", h.fork)
	mux.HandleFunc("GET /v1/scenarios", h.scenarios)
	mux.HandleFunc("POST /v1/scenarios/{name}/members", h.createScenario)
	return mux
}

type handler struct {
	s *Scheduler
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBusy):
		status = http.StatusConflict
	case errors.Is(err, ErrTooMany):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// requestCheckpoint decodes a request's checkpoint bytes; none is no
// checkpoint. Every decoding failure (core.ErrCheckpointFormat,
// core.ErrCheckpointCorrupt) is the client's: ErrInvalid, a 400.
func requestCheckpoint(b []byte) (*core.Checkpoint, error) {
	if len(b) == 0 {
		return nil, nil
	}
	chk, err := core.LoadCheckpoint(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%w: bad checkpoint: %v", ErrInvalid, err)
	}
	return chk, nil
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.s.Stats())
}

func (h *handler) create(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req CreateRequest
	if err := decodeCreate(body, &req); err != nil {
		writeErr(w, err)
		return
	}
	// Unknown fields are tolerated: no config is a 400, not a default.
	if req.Config == nil {
		writeErr(w, fmt.Errorf("%w: create wants a config (or POST /v1/scenarios/{name}/members)", ErrInvalid))
		return
	}
	cfg := *req.Config
	if req.OceanLag != nil {
		cfg.OceanLag = *req.OceanLag
	}
	if req.Flat != nil {
		cfg.Flat = *req.Flat
	}
	chk, err := requestCheckpoint(req.Checkpoint)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := h.s.Create(cfg, chk)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.s.List())
}

func (h *handler) info(w http.ResponseWriter, r *http.Request) {
	info, err := h.s.Info(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *handler) delete(w http.ResponseWriter, r *http.Request) {
	if err := h.s.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (h *handler) advance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	id := r.PathValue("id")
	var info Info
	var err error
	switch {
	case req.Intervals > 0 && req.Steps > 0:
		err = fmt.Errorf("%w: advance wants intervals or steps, not both", ErrInvalid)
	case req.Intervals > 0:
		info, err = h.s.AdvanceIntervals(id, req.Intervals)
	case req.Steps > 0:
		info, err = h.s.AdvanceSteps(id, req.Steps)
	default:
		err = fmt.Errorf("%w: advance wants a positive intervals or steps count", ErrInvalid)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *handler) diag(w http.ResponseWriter, r *http.Request) {
	d, err := h.s.Diagnostics(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (h *handler) sst(w http.ResponseWriter, r *http.Request) {
	f, err := h.s.SST(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, f)
}

func (h *handler) snapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	chk, cfg, err := h.s.Snapshot(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	var buf bytes.Buffer
	if err := chk.Save(&buf); err != nil {
		writeErr(w, err)
		return
	}
	info, err := h.s.Info(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Info:       info,
		Config:     cfg,
		Checkpoint: buf.Bytes(),
	})
}

func (h *handler) fork(w http.ResponseWriter, r *http.Request) {
	info, err := h.s.Fork(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (h *handler) scenarios(w http.ResponseWriter, r *http.Request) {
	rows, err := scenario.Rows()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rows)
}

// createScenario creates a member from a named registry scenario. The body
// is optional — no bytes, whatever the request's framing, is no body; when
// present, only its checkpoint is used (a resume), so a SnapshotResponse of
// a scenario member POSTs back verbatim.
func (h *handler) createScenario(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var chk *core.Checkpoint
	if len(body) > 0 {
		var req CreateRequest
		if err := decodeCreate(body, &req); err != nil {
			writeErr(w, err)
			return
		}
		if chk, err = requestCheckpoint(req.Checkpoint); err != nil {
			writeErr(w, err)
			return
		}
	}
	info, err := h.s.CreateScenario(r.PathValue("name"), chk)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}
