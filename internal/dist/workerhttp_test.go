package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/field"
)

// TestWorkerHTTPStatus pins the worker API's error mapping: unknown
// session 404, protocol violations 409, undecodable bodies — malformed
// JSON, bytes after the request or a structurally corrupt adoption
// delta — 400.
func TestWorkerHTTPStatus(t *testing.T) {
	h := NewWorkerHost(testBuilder)
	if err := h.Open(OpenRequest{Session: "s"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	for _, tc := range []struct {
		name, session, body string
		want                int
	}{
		{"unknown session", "nope", `{"epoch":0,"clusters":[0]}`, http.StatusNotFound},
		{"epoch out of step", "s", `{"epoch":5,"clusters":[0]}`, http.StatusConflict},
		{"malformed json", "s", `{"epoch":`, http.StatusBadRequest},
		{"trailing bytes", "s", `{"epoch":0,"clusters":[0]} x`, http.StatusBadRequest},
		{"corrupt delta", "s", `{"epoch":0,"clusters":[0],"adopt_deltas":[{"cluster":0,"epoch":-1}]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/worker/sessions/"+tc.session+"/epoch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// FuzzWorkerEpoch throws arbitrary bytes at the worker's epoch endpoint.
// Every input runs against a session freshly opened on the small
// five-cluster fixture, so inputs never interact, and must answer 200,
// 400, 404 or 409: a body the worker cannot use is the coordinator's
// fault, never a panic or a 500.
func FuzzWorkerEpoch(f *testing.F) {
	// An adoption payload: cluster state after epoch 0, encoded the way a
	// coordinator hands a reassigned cluster to a new worker.
	fld, cfg, err := testBuilder(nil)
	if err != nil {
		f.Fatal(err)
	}
	src, err := field.New(fld, cfg)
	if err != nil {
		f.Fatal(err)
	}
	ks := src.ClusterIndexes()
	if _, err := src.RunShardEpoch(exp.Options{Workers: 1}, 0, ks); err != nil {
		f.Fatal(err)
	}
	delta, err := src.EncodeClusterDelta(ks[0])
	if err != nil {
		f.Fatal(err)
	}
	epoch0, err := json.Marshal(EpochRequest{Epoch: 0, Clusters: ks})
	if err != nil {
		f.Fatal(err)
	}
	adopt, err := json.Marshal(EpochRequest{Epoch: 1, Clusters: ks[:1], AdoptDeltas: []field.ClusterDelta{delta}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(epoch0)
	f.Add(adopt)
	f.Add([]byte(`{"epoch":0,"clusters":[0,0]}`))
	f.Add([]byte(`{"epoch":-1,"clusters":[99]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := NewWorkerHost(testBuilder)
		if err := h.Open(OpenRequest{Session: "s"}); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/worker/sessions/s/epoch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
