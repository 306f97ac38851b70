package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// jsonBufs pools the JSON encode buffers both transports use — epoch
// payloads at 100k sensors run to megabytes per call, and the pool keeps
// a warm buffer per in-flight call instead of reallocating every epoch.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Transport is the coordinator's view of a worker fleet: four calls,
// each addressed by the opaque worker name from Config.Workers. The
// HTTP implementation treats names as base URLs; LocalTransport treats
// them as map keys. Implementations must honor the context.
type Transport interface {
	// Ping is the heartbeat probe.
	Ping(ctx context.Context, worker string) error
	// Open registers the session on the worker.
	Open(ctx context.Context, worker string, req OpenRequest) error
	// RunShard drives one worker through one epoch barrier.
	RunShard(ctx context.Context, worker string, req EpochRequest) (*EpochResponse, error)
	// Close drops the session (best-effort; errors are advisory).
	Close(ctx context.Context, worker string, session string) error
}

// LocalTransport runs WorkerHosts in-process — the test and benchmark
// fabric. Requests and responses round-trip through JSON so in-process
// runs exercise the exact wire encoding the HTTP transport uses: a
// payload that would not survive serialization fails here too.
//
// Kill simulates a kill -9: every subsequent call to that worker fails.
// The host's state is abandoned, not cleaned up — exactly what a dead
// process leaves behind.
type LocalTransport struct {
	mu     sync.Mutex
	hosts  map[string]*WorkerHost
	killed map[string]bool
	delays map[string]time.Duration
}

// NewLocalTransport builds an empty in-process fabric.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{
		hosts:  make(map[string]*WorkerHost),
		killed: make(map[string]bool),
		delays: make(map[string]time.Duration),
	}
}

// Delay makes every subsequent RunShard against the named worker stall
// for d before executing — the fabric's slow-worker injection. Pings
// are unaffected (a slow worker is alive, just slow). Zero removes the
// stall.
func (t *LocalTransport) Delay(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.delays[name] = d
}

// AddWorker registers a host under a worker name.
func (t *LocalTransport) AddWorker(name string, h *WorkerHost) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hosts[name] = h
}

// Kill makes the named worker unreachable from now on.
func (t *LocalTransport) Kill(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.killed[name] = true
}

// host resolves a live worker.
func (t *LocalTransport) host(worker string) (*WorkerHost, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.killed[worker] {
		return nil, fmt.Errorf("dist: worker %q is down", worker)
	}
	h := t.hosts[worker]
	if h == nil {
		return nil, fmt.Errorf("dist: unknown worker %q", worker)
	}
	return h, nil
}

// reencode round-trips v through JSON into out — the in-process stand-in
// for the wire.
func reencode(v, out any) error {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// Ping implements Transport.
func (t *LocalTransport) Ping(ctx context.Context, worker string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, err := t.host(worker)
	return err
}

// Open implements Transport.
func (t *LocalTransport) Open(ctx context.Context, worker string, req OpenRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h, err := t.host(worker)
	if err != nil {
		return err
	}
	var wire OpenRequest
	if err := reencode(req, &wire); err != nil {
		return err
	}
	return h.Open(wire)
}

// RunShard implements Transport.
func (t *LocalTransport) RunShard(ctx context.Context, worker string, req EpochRequest) (*EpochResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := t.host(worker)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	delay := t.delays[worker]
	t.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var wire EpochRequest
	if err := reencode(req, &wire); err != nil {
		return nil, err
	}
	resp, err := h.RunShard(wire)
	if err != nil {
		return nil, err
	}
	var out EpochResponse
	if err := reencode(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close implements Transport.
func (t *LocalTransport) Close(ctx context.Context, worker string, session string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	h, err := t.host(worker)
	if err != nil {
		return err
	}
	h.Close(session)
	return nil
}
