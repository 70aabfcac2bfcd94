package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables mirror
// BENCHMARK.json at the repository root; the self-test checks that they
// agree.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; --trace 0 reports them all.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/ref-s"},
	{"job_p50_ms", "ref-ms"},
	{"job_p90_ms", "ref-ms"},
	{"jobs_per_s", "1/ref-s"},
	{"setup_s", "s"},
}

// perLayer is what --trace 1 reports. A metric of a layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.gen_ms_per_trace", "ms"},
	{"trace.alloc_mb_per_trace", "MB"},
	{"trace.traces", "count"},
	{"core.build_us_per_cell", "us"},
	{"core.build_allocs_per_cell", "count"},
	{"core.cell_ms_p50", "ms"},
	{"core.cell_ms_p90", "ms"},
	{"gpu.self_ms_per_cell", "ms"},
	{"hmem.accesses", "count"},
	{"hmem.ns_per_access", "ns"},
	{"hmem.share", "ratio"},
	{"hmem.replay_ns_per_access", "ns"},
	{"stats.finalize_us_per_cell", "us"},
	{"batch.cells_per_s", "1/s"},
	{"batch.key_us", "us"},
	{"batch.cache_get_us", "us"},
	{"batch.cache_put_us", "us"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.exec_ms_per_job", "ms"},
	{"twin.us_per_cell", "us"},
	{"search.job_ms", "ms"},
	{"search.evaluations", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.polls_per_job", "count"},
	{"serve.journal_kb", "KB"},
	{"gpu.l1_hit_rate", "ratio"},
	{"gpu.l2_hit_rate", "ratio"},
	{"gpu.mshr_merges", "count"},
	{"hmem.migrations", "count"},
	{"hmem.copy_fraction", "ratio"},
	{"hmem.sim_mean_latency_ns", "ns"},
	{"hmem.sim_p99_latency_ns", "ns"},
	{"optical.bytes_regular", "bytes"},
	{"optical.bytes_copy", "bytes"},
	{"elec.bytes_regular", "bytes"},
	{"elec.bytes_copy", "bytes"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"xpoint.reads", "count"},
	{"xpoint.writes", "count"},
	{"energy.total_pj", "pJ"},
	{"trace_overhead_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"error_rate", "ratio"},
}

// result accumulates one run's checks and metrics.
type result struct {
	tally   tally
	metrics map[string]float64
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result for the run's metric table. Every end-to-end
// metric must have been measured; per-layer metrics of layers the workload
// does not exercise read 0.
func (r *result) line(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
		r.set("error_rate", r.tally.errorRate())
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			return resultLine{}, fmt.Errorf("metric %q is not in the run's table", name)
		}
	}
	attempted, failed := r.tally.counts()
	if attempted == 0 {
		return resultLine{}, fmt.Errorf("no operation was attempted")
	}
	out := resultLine{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !traced {
			return resultLine{}, fmt.Errorf("end-to-end metric %q was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("metric %q is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// tally counts checked operations and the ones that failed. Safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failure messages
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.first) < 8 {
		t.first = append(t.first, err.Error())
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

func (t *tally) errorRate() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// stamp identifies the host and build that produced a result.
type stamp struct {
	CPU        string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newStamp(o options) stamp {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// cpuModel reads the processor name from the kernel, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by nearest rank; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// jobSample is one measured job on the wall clock.
type jobSample struct {
	wall   time.Duration // the job's latency
	end    time.Duration // when it ended, on the refClock's wall clock
	instr  uint64        // simulated instructions it retired
	failed bool
}

// setJobMetrics sets the job metrics, every time converted to reference
// time by clk. A failed job counts as jobTimeout, missing every latency
// limit, and as no completed job.
func (r *result) setJobMetrics(clk *refClock, jobs []jobSample) {
	lat := make([]float64, len(jobs))
	var total, wall time.Duration
	var instr uint64
	done := 0
	for i, j := range jobs {
		t := clk.ref(j.wall, j.end)
		total += t
		wall += j.wall
		if j.failed {
			lat[i] = ms(jobTimeout)
			continue
		}
		lat[i] = ms(t)
		instr += j.instr
		done++
	}
	r.set("sim_minstr_per_s", per(float64(instr)/1e6, total.Seconds()))
	r.set("job_p50_ms", quantile(lat, 0.5))
	r.set("job_p90_ms", quantile(lat, 0.9))
	r.set("jobs_per_s", per(float64(done), total.Seconds()))
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs, %d done; %.3f s on the wall clock, %.3f s on the reference clock; %d ticks, median %.3f ms (nominal %.0f ms)\n",
		len(jobs), done, wall.Seconds(), total.Seconds(), len(clk.took), quantile(clk.ticks(), 0.5), ms(nominalTick))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// per divides, reading 0 for an empty denominator.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// mix64 is splitmix64 over (seed, i): the benchmark's only source of input
// randomness, so a seed fixes every input.
func mix64(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + (i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// simSeed draws a config seed below 2^31, which every surface (the override
// layer, JSON numbers) carries exactly.
func simSeed(seed, i uint64) int { return int(mix64(seed, i) >> 33) }
