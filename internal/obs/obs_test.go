package obs

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusExposition pins the exposition format byte-for-byte: one
// of every instrument kind in a private registry, rendered in family name
// order with HELP/TYPE headers, cumulative buckets, escaped labels.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("test_requests_total", "Requests served.")
	c.Add(3)

	g := r.Gauge("test_queue_depth", "Jobs waiting.")
	g.Set(7)
	g.Dec()

	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.1) // == bound: falls in the le="0.1" bucket
	h.Observe(5)
	h.Observe(50) // overflow -> +Inf only

	cv := r.CounterVec("test_hits_total", "Hits by route.", "route", "code")
	cv.With("/v1/jobs", "200").Add(2)
	cv.With("/v1/jobs/{id}", "404").Inc()
	cv.With(`we"ird\nk`, "200").Inc() // escaping

	hv := r.HistogramVec("test_io_seconds", "IO latency.", []float64{0.5}, "op")
	hv.With("read").Observe(0.25)
	hv.With("write").Observe(2)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)

	want := `# HELP test_hits_total Hits by route.
# TYPE test_hits_total counter
test_hits_total{route="/v1/jobs",code="200"} 2
test_hits_total{route="/v1/jobs/{id}",code="404"} 1
test_hits_total{route="we\"ird\\nk",code="200"} 1
# HELP test_io_seconds IO latency.
# TYPE test_io_seconds histogram
test_io_seconds_bucket{op="read",le="0.5"} 1
test_io_seconds_bucket{op="read",le="+Inf"} 1
test_io_seconds_sum{op="read"} 0.25
test_io_seconds_count{op="read"} 1
test_io_seconds_bucket{op="write",le="0.5"} 0
test_io_seconds_bucket{op="write",le="+Inf"} 1
test_io_seconds_sum{op="write"} 2
test_io_seconds_count{op="write"} 1
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="10"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 55.15
test_latency_seconds_count 4
# HELP test_queue_depth Jobs waiting.
# TYPE test_queue_depth gauge
test_queue_depth 6
# HELP test_requests_total Requests served.
# TYPE test_requests_total counter
test_requests_total 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDuplicateRegistrationPanics pins the promauto contract: a metric
// name registers once per registry.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of dup_total did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

// TestHandlerServesExposition covers the HTTP surface GET /metrics mounts.
func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "Things served.").Add(9)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "served_total 9\n") {
		t.Errorf("body missing series:\n%s", body)
	}
}

// TestConcurrentInstruments hammers every instrument kind from many
// goroutines; run under -race this pins the lock-free paths, and the
// final values pin that no increment is lost.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	g := r.Gauge("conc_gauge", "x")
	h := r.Histogram("conc_hist_seconds", "x", []float64{0.5})
	cv := r.CounterVec("conc_vec_total", "x", "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%2) * 0.75)
				cv.With("a").Inc()
				if w == 0 {
					var buf bytes.Buffer
					r.WritePrometheus(&buf) // scrape while writing
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := cv.With("a").Value(); got != workers*per {
		t.Errorf("vec counter = %d, want %d", got, workers*per)
	}
}

// TestPhasesAddTotal covers the phase arithmetic a job's timing block
// sums with.
func TestPhasesAddTotal(t *testing.T) {
	var p Phases
	p.Add(Phases{TraceGen: 10 * time.Millisecond, PlatformBuild: 20 * time.Millisecond, EventLoop: 60 * time.Millisecond})
	p.Add(Phases{})
	p.Add(Phases{EventLoop: 40 * time.Millisecond})
	if p.EventLoop != 100*time.Millisecond || p.Total() != 130*time.Millisecond {
		t.Errorf("phases = %+v, total %s", p, p.Total())
	}
	if p.IsZero() || !(Phases{}).IsZero() {
		t.Error("IsZero misreports")
	}
}

// TestParseLevel covers the flag surface.
func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

// TestLoggers covers the JSON/text constructors and the Nop fallback.
func TestLoggers(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo, true).Info("hello", KeyJobID, "job-000001")
	if s := buf.String(); !strings.Contains(s, `"job_id":"job-000001"`) || !strings.Contains(s, `"msg":"hello"`) {
		t.Errorf("json log = %s", s)
	}
	buf.Reset()
	NewLogger(&buf, slog.LevelWarn, false).Info("dropped")
	if buf.Len() != 0 {
		t.Errorf("info under warn level should be dropped, got %s", buf.String())
	}
	Nop().Error("nowhere", "k", "v") // must not panic
	if Or(nil) == nil || Or(Nop()) == nil {
		t.Error("Or must never return nil")
	}
}

// TestStartPprof boots the profiling listener on an ephemeral port and
// fetches an index page.
func TestStartPprof(t *testing.T) {
	addr, stop, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = HTTP %d", resp.StatusCode)
	}
}
