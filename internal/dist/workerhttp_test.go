package dist

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWorkerHTTPStatus pins the worker API's error mapping: unknown
// session 404, protocol violations 409, undecodable bodies — malformed
// JSON or a structurally corrupt adoption delta — 400.
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
