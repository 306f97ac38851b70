package dist

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
)

// ErrNoSession marks a call against a session the worker does not hold.
// Wrapped; match with errors.Is. The HTTP layer maps it to 404.
var ErrNoSession = errors.New("no such session")

// WorkerHost is the worker half of the protocol: it holds field
// runtimes keyed by session and serves the coordinator's open /
// run-epoch / close calls. It is transport-agnostic — Handler mounts it
// over HTTP, LocalTransport calls it in-process.
//
// Calls on one session serialize under the session's lock (a runtime
// takes one call at a time and runs the shard's clusters on its own
// pool); different sessions proceed concurrently.
type WorkerHost struct {
	build Builder
	// Obs, when non-nil, receives the per-cluster series the cluster
	// runners emit and the radio_* series of the worker's mediums.
	// Observational only.
	Obs obs.Observer

	mu       sync.Mutex
	sessions map[string]*workerSession
}

type workerSession struct {
	mu   sync.Mutex
	hash string
	rt   *field.Runtime
}

// NewWorkerHost builds a host around the spec builder.
func NewWorkerHost(build Builder) *WorkerHost {
	return &WorkerHost{build: build, sessions: make(map[string]*workerSession)}
}

// Open registers a session: builds the deployment from the spec and
// arms a fresh runtime for it. Idempotent for an existing session with a
// matching field hash.
func (h *WorkerHost) Open(req OpenRequest) error {
	if req.Session == "" {
		return fmt.Errorf("dist: open with empty session")
	}
	h.mu.Lock()
	s := h.sessions[req.Session]
	h.mu.Unlock()
	if s != nil {
		if req.FieldHash != "" && s.hash != req.FieldHash {
			return fmt.Errorf("dist: session %q already holds field %s, open asks for %s", req.Session, s.hash, req.FieldHash)
		}
		return nil
	}
	f, cfg, err := h.build(req.Spec)
	if err != nil {
		return fmt.Errorf("dist: build spec for session %q: %w", req.Session, err)
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		return fmt.Errorf("dist: session %q: %w", req.Session, err)
	}
	if req.FieldHash != "" && rt.FieldHash() != req.FieldHash {
		return fmt.Errorf("dist: session %q built field %s, coordinator has %s — spec or builder disagree",
			req.Session, rt.FieldHash(), req.FieldHash)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if again := h.sessions[req.Session]; again != nil {
		// Lost a concurrent open race; the other build wins.
		if req.FieldHash != "" && again.hash != req.FieldHash {
			return fmt.Errorf("dist: session %q already holds field %s, open asks for %s", req.Session, again.hash, req.FieldHash)
		}
		return nil
	}
	h.sessions[req.Session] = &workerSession{hash: rt.FieldHash(), rt: rt}
	return nil
}

// session looks up an open session.
func (h *WorkerHost) session(id string) (*workerSession, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.sessions[id]
	if s == nil {
		return nil, fmt.Errorf("dist: %w: %q", ErrNoSession, id)
	}
	return s, nil
}

// RunShard installs any handed-off states and advances the requested
// clusters through the epoch on a pool of runtime.NumCPU goroutines.
func (h *WorkerHost) RunShard(req EpochRequest) (*EpochResponse, error) {
	s, err := h.session(req.Session)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range req.AdoptDeltas {
		if err := s.rt.AdoptClusterDelta(d); err != nil {
			return nil, err
		}
	}
	res, err := s.rt.RunShardEpoch(exp.Options{Obs: h.Obs}, req.Epoch, req.Clusters)
	if err != nil {
		return nil, err
	}
	return &EpochResponse{Results: res}, nil
}

// Close drops a session. Closing an unknown session is a no-op — the
// coordinator closes best-effort.
func (h *WorkerHost) Close(session string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.sessions, session)
}

// Sessions counts the open sessions (exposition only).
func (h *WorkerHost) Sessions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}
