package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmit throws arbitrary bytes at POST /v1/jobs on a manager that is
// never started, so accepted jobs only queue: every input must answer
// 202, 400 or 429 — a malformed or invalid spec is the client's fault,
// never a panic or a 500.
func FuzzSubmit(f *testing.F) {
	m, err := New(Config{SpoolDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(m, nil, nil)
	f.Add([]byte(`{"type":"probe","probe":{}}`))
	f.Add([]byte(fmt.Sprintf(fieldSpecJSON, 3)))
	f.Add([]byte(`{"type":"probe","probe":{},"class":"interactive","priority":2,"retry":{"max_attempts":3,"backoff_ms":5}}`))
	f.Add([]byte(`{"type":"dist_field","dist":{"field":{"heads":1},"workers":["http://x"]}}`))
	f.Add([]byte(`{"type":"sweep","sweep":{"fig":"7a","quick":true}}`))
	f.Add([]byte(`{"type":"field"}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Fatalf("spec %q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
