// Package obs is the cluster's observability core: process-wide metrics
// (atomic counters, gauges and fixed-bucket histograms with Prometheus
// text exposition), structured logging built on log/slog, lightweight
// per-job spans that aggregate cell timings into a machine-readable
// breakdown, and a pprof listener helper. It depends only on the standard
// library, so every layer — the batch runner, the distributed dispatcher,
// the HTTP daemon — can import it without cycles or third-party modules.
//
// Metrics follow the promauto idiom: packages declare their instruments
// as package-level vars via NewCounter/NewGauge/NewHistogram (and the
// label-vector variants), which register in the Default registry exactly
// once per process. GET /metrics serves Default via Handler().
//
// Instrumentation granularity is cells and jobs, never simulated events:
// the discrete-event kernel stays allocation-free, and the benchcheck CI
// gate enforces that.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// collector is one registered metric family; it renders its own series.
type collector interface {
	describe() (name, help, typ string)
	write(w io.Writer)
}

// Registry holds metric families and renders them as Prometheus text
// exposition (version 0.0.4). Families are emitted in name order so the
// output is deterministic — the exposition test pins it byte-for-byte.
type Registry struct {
	mu     sync.Mutex
	byName map[string]collector
}

// NewRegistry returns an empty registry. Most code uses Default through
// the package-level constructors; tests build private registries to get
// deterministic, isolated exposition.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]collector)}
}

// Default is the process-wide registry served by Handler.
var Default = NewRegistry()

func (r *Registry) register(c collector) {
	name, _, _ := c.describe()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.byName[name] = c
}

// WritePrometheus renders every family in name order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	cs := make([]collector, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		cs = append(cs, r.byName[n])
	}
	r.mu.Unlock()

	for _, c := range cs {
		name, help, typ := c.describe()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		c.write(w)
	}
}

// Handler serves the registry as text exposition (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }

// formatFloat renders a sample value the way Prometheus parsers expect.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels formats `k1="v1",k2="v2"` (no braces) for the given pairs.
func renderLabels(keys, values []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// series renders `name` or `name{labels}`.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// --- Counter ---

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	labels     string // rendered label pairs when a vec child, else ""
	v          atomic.Uint64
}

// Counter registers a counter in r.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewCounter registers a counter in Default.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) describe() (string, string, string) { return c.name, c.help, "counter" }

func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", series(c.name, c.labels), c.v.Load())
}

// --- Gauge ---

// Gauge is an integer value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Gauge registers a gauge in r.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewGauge registers a gauge in Default.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) describe() (string, string, string) { return g.name, g.help, "gauge" }

func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// --- Histogram ---

// DurationBuckets is the default bucket layout for request/cell/job
// latencies: 1ms to 60s, roughly logarithmic.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// IOBuckets is the default layout for fast local I/O (cache reads and
// writes): 10µs to 1s.
var IOBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// Histogram is a fixed-bucket histogram with cumulative Prometheus
// exposition. Observations are lock-free (one atomic add per bucket plus
// a CAS loop for the sum).
type Histogram struct {
	name, help string
	labels     string // rendered label pairs when a vec child, else ""
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last bucket is +Inf overflow
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Histogram registers a histogram in r with the given upper bounds
// (ascending; +Inf is implicit). Nil buckets means DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, help, buckets)
	r.register(h)
	return h
}

// NewHistogram registers a histogram in Default.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.Histogram(name, help, buckets)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= le
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) describe() (string, string, string) { return h.name, h.help, "histogram" }

func (h *Histogram) write(w io.Writer) {
	var cum uint64
	sep := h.labels
	if sep != "" {
		sep += ","
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", h.name, sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, sep, cum)
	fmt.Fprintf(w, "%s %s\n", series(h.name+"_sum", h.labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", series(h.name+"_count", h.labels), h.count.Load())
}

// --- Label vectors ---

// CounterVec is a family of counters partitioned by label values. Label
// sets must stay low-cardinality (routes, states, worker names) — every
// distinct combination lives for the life of the process.
type CounterVec struct {
	name, help string
	keys       []string
	mu         sync.RWMutex
	children   map[string]*Counter
}

// CounterVec registers a labeled counter family in r.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, keys: labels, children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// NewCounterVec registers a labeled counter family in Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// With returns the child counter for the given label values (created on
// first use). len(values) must equal the label count.
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.keys), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = &Counter{name: v.name, help: v.help, labels: renderLabels(v.keys, values)}
	v.children[key] = c
	return c
}

func (v *CounterVec) describe() (string, string, string) { return v.name, v.help, "counter" }

func (v *CounterVec) write(w io.Writer) {
	v.mu.RLock()
	cs := make([]*Counter, 0, len(v.children))
	for _, c := range v.children {
		cs = append(cs, c)
	}
	v.mu.RUnlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].labels < cs[j].labels })
	for _, c := range cs {
		c.write(w)
	}
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	name, help string
	buckets    []float64
	keys       []string
	mu         sync.RWMutex
	children   map[string]*Histogram
}

// HistogramVec registers a labeled histogram family in r.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, buckets: buckets, keys: labels, children: make(map[string]*Histogram)}
	r.register(v)
	return v
}

// NewHistogramVec registers a labeled histogram family in Default.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.HistogramVec(name, help, buckets, labels...)
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.keys), len(values)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[key]; ok {
		return h
	}
	h = newHistogram(v.name, v.help, v.buckets)
	h.labels = renderLabels(v.keys, values)
	v.children[key] = h
	return h
}

func (v *HistogramVec) describe() (string, string, string) { return v.name, v.help, "histogram" }

func (v *HistogramVec) write(w io.Writer) {
	v.mu.RLock()
	hs := make([]*Histogram, 0, len(v.children))
	for _, h := range v.children {
		hs = append(hs, h)
	}
	v.mu.RUnlock()
	sort.Slice(hs, func(i, j int) bool { return hs[i].labels < hs[j].labels })
	for _, h := range hs {
		h.write(w)
	}
}
