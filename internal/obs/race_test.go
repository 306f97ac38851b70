package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentScrapeWhileRecording is the registry's concurrency probe:
// writer goroutines hammer counters, gauges and histograms through a
// RegistryObserver (including first-use creation of new series) while
// reader goroutines continuously render JSON and Prometheus snapshots and
// scrape the HTTP handler. Run under -race; correctness here is "no race,
// no panic, every snapshot internally consistent".
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	reg := NewRegistry()
	o := reg.Observer()

	const (
		writers    = 4
		scrapers   = 3
		iterations = 400
	)
	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iterations; i++ {
				o.Add("svc_ops_total", 1)
				o.Add(Series("svc_ops_by_worker_total", "worker", fmt.Sprint(w)), 1)
				o.Set("svc_inflight", float64(i%7))
				o.Observe("svc_op_seconds", float64(i%10)/1000)
				if i%50 == 0 {
					// Fresh series mid-flight: exercises the registry's
					// get-or-create path racing the snapshot path.
					o.Add(Series("svc_lazy_total", "i", fmt.Sprint(w*iterations+i)), 1)
				}
			}
		}(w)
	}

	handler := reg.Handler()
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iterations/4; i++ {
				var buf bytes.Buffer
				if err := reg.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
				buf.Reset()
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if rec.Code != 200 {
					t.Errorf("scrape status %d", rec.Code)
					return
				}
				if _, err := io.Copy(io.Discard, rec.Result().Body); err != nil {
					t.Errorf("drain scrape: %v", err)
					return
				}
			}
		}()
	}

	close(start)
	wg.Wait()

	// After the storm settles, totals must be exact: atomics lost nothing.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	wantOps := fmt.Sprintf("svc_ops_total %d\n", writers*iterations)
	if !bytes.Contains(buf.Bytes(), []byte(wantOps)) {
		t.Fatalf("final exposition missing %q:\n%s", wantOps, buf.String())
	}
	wantHist := fmt.Sprintf("svc_op_seconds_count %d\n", writers*iterations)
	if !bytes.Contains(buf.Bytes(), []byte(wantHist)) {
		t.Fatalf("final exposition missing %q", wantHist)
	}
}

// TestScrapeWhileHelpArrives races scrapes against registrations that
// bring an existing series its first non-empty help. A scrape must read
// nothing such a registration writes, and the first non-empty help must
// still win.
func TestScrapeWhileHelpArrives(t *testing.T) {
	reg := NewRegistry()
	const series = 300
	name := func(family string, i int) string { return Series(family, "i", fmt.Sprint(i)) }
	for i := 0; i < series; i++ {
		reg.Counter(name("late_help_total", i), "")
		reg.Gauge(name("late_help_gauge", i), "")
		reg.Histogram(name("late_help_seconds", i), "", nil)
	}
	// The help arrives in waves, each after one more scrape has finished,
	// so most waves land while a scrape walks the series.
	const wave = 15
	var scrapes atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < series; i++ {
			if i%wave == 0 {
				for seen := scrapes.Load(); scrapes.Load() == seen; {
					runtime.Gosched()
				}
			}
			reg.Counter(name("late_help_total", i), "first counter help")
			reg.Gauge(name("late_help_gauge", i), "first gauge help")
			reg.Histogram(name("late_help_seconds", i), "first histogram help", nil)
			reg.Counter(name("late_help_total", i), "second counter help")
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		// Keep scraping after an error: the writer waits for scrapes.
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
		scrapes.Add(1)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP late_help_total first counter help\n",
		"# HELP late_help_gauge first gauge help\n",
		"# HELP late_help_seconds first histogram help\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
