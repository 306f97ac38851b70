package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/field"
)

// The worker wire API, mounted under /v1/worker:
//
//	GET    /v1/worker/ping                       → 204 (heartbeat)
//	POST   /v1/worker/sessions                   → 204 (OpenRequest body)
//	POST   /v1/worker/sessions/{id}/epoch        → 200 EpochResponse (EpochRequest body)
//	DELETE /v1/worker/sessions/{id}              → 204
//
// Error mapping: unknown session 404, protocol violations (epoch out of
// step, mismatched state) 409, undecodable bodies (malformed JSON, bytes
// after the request, a corrupt adoption delta) 400, everything else 500.
// The body of a failure is the error text — the coordinator folds it into
// its own error.

// Handler returns the worker API as a self-contained http.Handler,
// ready to mount on a daemon's mux (the patterns carry the full
// /v1/worker prefix).
func (h *WorkerHost) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/worker/ping", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/worker/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req OpenRequest
		if err := decodeBody(r.Body, &req); err != nil {
			http.Error(w, "dist: decode open request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.Open(req); err != nil {
			httpError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/worker/sessions/{id}/epoch", func(w http.ResponseWriter, r *http.Request) {
		var req EpochRequest
		if err := decodeBody(r.Body, &req); err != nil {
			http.Error(w, "dist: decode epoch request: "+err.Error(), http.StatusBadRequest)
			return
		}
		req.Session = r.PathValue("id")
		resp, err := h.RunShard(req)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("DELETE /v1/worker/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		h.Close(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// decodeBody decodes a request body that must hold exactly one JSON
// value: bytes after it make the body malformed.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the request")
	}
	return nil
}

// httpError maps a host error onto a status code.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNoSession):
		code = http.StatusNotFound
	case errors.Is(err, field.ErrShardEpoch), errors.Is(err, field.ErrShardMismatch):
		code = http.StatusConflict
	case errors.Is(err, field.ErrDeltaCorrupt):
		code = http.StatusBadRequest
	}
	http.Error(w, err.Error(), code)
}

// writeJSON emits a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but drop the connection state.
		return
	}
}

// HTTPTransport speaks the worker wire API; worker names are base URLs
// ("http://127.0.0.1:9101"). The zero value uses http.DefaultClient.
// Per-call deadlines come from the caller's context — the coordinator
// wraps every call in its EpochTimeout.
type HTTPTransport struct {
	Client *http.Client
}

// client resolves the HTTP client.
func (t *HTTPTransport) client() *http.Client {
	if t != nil && t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// do runs one call: JSON body in (when in != nil), JSON body out (when
// out != nil), non-2xx statuses surfaced as errors carrying the worker's
// error text.
func (t *HTTPTransport) do(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf := jsonBufs.Get().(*bytes.Buffer)
		defer jsonBufs.Put(buf) // after resp.Body.Close — the request body replay window is over
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(in); err != nil {
			return fmt.Errorf("dist: encode %s %s: %w", method, url, err)
		}
		body = bytes.NewReader(buf.Bytes())
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("dist: build %s %s: %w", method, url, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return fmt.Errorf("dist: %s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dist: %s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("dist: decode %s %s: %w", method, url, err)
		}
	}
	return nil
}

// Ping implements Transport.
func (t *HTTPTransport) Ping(ctx context.Context, worker string) error {
	return t.do(ctx, http.MethodGet, worker+"/v1/worker/ping", nil, nil)
}

// Open implements Transport.
func (t *HTTPTransport) Open(ctx context.Context, worker string, req OpenRequest) error {
	return t.do(ctx, http.MethodPost, worker+"/v1/worker/sessions", req, nil)
}

// RunShard implements Transport.
func (t *HTTPTransport) RunShard(ctx context.Context, worker string, req EpochRequest) (*EpochResponse, error) {
	var out EpochResponse
	url := worker + "/v1/worker/sessions/" + req.Session + "/epoch"
	if err := t.do(ctx, http.MethodPost, url, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close implements Transport.
func (t *HTTPTransport) Close(ctx context.Context, worker string, session string) error {
	return t.do(ctx, http.MethodDelete, worker+"/v1/worker/sessions/"+session, nil, nil)
}
