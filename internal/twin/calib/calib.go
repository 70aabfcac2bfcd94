// Package calib cross-validates the analytical twin against the event
// simulator: it replays every platform preset in both memory modes over
// the full Table II workload suite, computes per-metric error statistics
// (MAPE and Pearson correlation), and diffs them against a committed
// baseline so the twin's accuracy is a tested contract, not a claim.
//
// It lives in its own package because it needs both sides of the
// comparison — internal/twin must never import the simulator it
// approximates, and internal/core must never know the twin exists.
package calib

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/twin"
)

// Metrics are the headline report metrics the calibration tracks, in
// display order. They match the twin's Extra["twin:mape:*"] keys.
var Metrics = []string{"ipc", "elapsed", "mean-latency", "p99-latency", "energy", "mem-requests"}

// Cell identifies one calibration point.
type Cell struct {
	Preset   string `json:"preset"`
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
}

// Pair is one cell's DES measurement next to the twin's estimate.
type Pair struct {
	Cell
	DES  map[string]float64 `json:"des"`
	Twin map[string]float64 `json:"twin"`
}

// MetricError summarizes one metric across all calibration cells.
type MetricError struct {
	// MAPE is the mean absolute percentage error of the twin against the
	// simulator, as a fraction (0.12 = 12%).
	MAPE float64 `json:"mape"`
	// Pearson is the linear correlation between estimate and measurement
	// across cells — high correlation with moderate MAPE means the twin
	// ranks design points correctly even where its absolute numbers drift.
	Pearson float64 `json:"pearson"`
	// WorstCell names the cell with the largest absolute error.
	WorstCell string `json:"worst_cell"`
	// WorstErr is that cell's absolute percentage error (fraction).
	WorstErr float64 `json:"worst_err"`
}

// Summary is the committed calibration baseline: the twin model version
// it was measured for, the grid size, and per-metric error statistics.
type Summary struct {
	ModelVersion string                 `json:"model_version"`
	Cells        int                    `json:"cells"`
	Metrics      map[string]MetricError `json:"metrics"`
}

// metricsOf flattens the headline metrics of a report for comparison.
func metricsOf(r stats.Report) map[string]float64 {
	return map[string]float64{
		"ipc":          r.IPC,
		"elapsed":      float64(r.Elapsed),
		"mean-latency": float64(r.MeanLatency),
		"p99-latency":  float64(r.P99Latency),
		"energy":       r.TotalEnergyPJ(),
		"mem-requests": float64(r.MemRequests),
	}
}

// Grid returns the calibration grid: every preset in both memory modes
// across the full Table II workload suite.
func Grid() []Cell {
	var cells []Cell
	for _, p := range config.Presets() {
		for _, m := range config.AllModes() {
			for _, w := range config.WorkloadNames() {
				cells = append(cells, Cell{Preset: p.Name, Mode: m.String(), Workload: w})
			}
		}
	}
	return cells
}

// Run replays the grid through both the simulator and the twin and
// returns the pairs in grid order. Both sides run as one sweep on an
// uncached batch runner — the grid's DES cells, then its analytical
// cells — so the 140 DES cells spread over GOMAXPROCS workers, each
// simulating on a pooled run state.
func Run() ([]Pair, error) {
	grid := Grid()
	cells := make([]batch.Cell, 2*len(grid))
	for i, c := range grid {
		pre, ok := config.LookupPreset(c.Preset)
		if !ok {
			return nil, fmt.Errorf("calib: unknown preset %q", c.Preset)
		}
		mode, err := config.ParseMode(c.Mode)
		if err != nil {
			return nil, err
		}
		cfg := config.Default(pre.Platform, mode)
		cells[i] = batch.Cell{Workload: c.Workload, Config: cfg}
		cells[len(grid)+i] = batch.Cell{Exec: config.ExecAnalytical, Workload: c.Workload, Config: cfg}
	}
	reps, err := batch.NewRunner(0, nil).Run(cells)
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	pairs := make([]Pair, len(grid))
	for i, c := range grid {
		pairs[i] = Pair{Cell: c, DES: metricsOf(reps[i]), Twin: metricsOf(reps[len(grid)+i])}
	}
	return pairs, nil
}

// Summarize reduces pairs to per-metric error statistics.
func Summarize(pairs []Pair) Summary {
	s := Summary{
		ModelVersion: twin.ModelVersion,
		Cells:        len(pairs),
		Metrics:      make(map[string]MetricError, len(Metrics)),
	}
	for _, m := range Metrics {
		var (
			sumErr, worst float64
			worstCell     string
			xs, ys        []float64
		)
		for _, p := range pairs {
			ref, est := p.DES[m], p.Twin[m]
			if ref == 0 {
				continue
			}
			e := math.Abs(est-ref) / math.Abs(ref)
			sumErr += e
			if e > worst {
				worst, worstCell = e, fmt.Sprintf("%s/%s/%s", p.Preset, p.Mode, p.Workload)
			}
			xs, ys = append(xs, ref), append(ys, est)
		}
		me := MetricError{WorstCell: worstCell, WorstErr: round4(worst)}
		if len(xs) > 0 {
			me.MAPE = round4(sumErr / float64(len(xs)))
			me.Pearson = round4(pearson(xs, ys))
		}
		s.Metrics[m] = me
	}
	return s
}

// round4 keeps the committed baseline diff-stable across platforms.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx, my = mx/n, my/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Load reads a committed baseline file.
func Load(path string) (Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return Summary{}, fmt.Errorf("calib: %s: %w", path, err)
	}
	return s, nil
}

// Save writes a baseline with stable formatting for committing.
func Save(path string, s Summary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DriftTolerance is how far a freshly measured per-metric MAPE may move
// from the committed baseline before Compare fails, in absolute MAPE
// points (0.02 = two percentage points). Small wobble is expected — the
// simulator is deterministic but the metric mix shifts as workloads or
// presets are retuned — while larger drift means the twin or the
// simulator changed behaviour and the baseline must be consciously
// re-committed via scripts/twincheck -update.
const DriftTolerance = 0.02

// Compare diffs a fresh summary against the committed baseline and
// returns the list of violations (empty means calibration holds).
func Compare(baseline, fresh Summary) []string {
	var bad []string
	if baseline.ModelVersion != fresh.ModelVersion {
		bad = append(bad, fmt.Sprintf("model version %q != baseline %q (re-run scripts/twincheck -update)",
			fresh.ModelVersion, baseline.ModelVersion))
	}
	if baseline.Cells != fresh.Cells {
		bad = append(bad, fmt.Sprintf("grid size %d != baseline %d", fresh.Cells, baseline.Cells))
	}
	names := make([]string, 0, len(baseline.Metrics))
	for m := range baseline.Metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		b, f := baseline.Metrics[m], fresh.Metrics[m]
		if d := math.Abs(f.MAPE - b.MAPE); d > DriftTolerance {
			bad = append(bad, fmt.Sprintf("%s: MAPE %.4f drifted from baseline %.4f (|Δ| %.4f > %.2f)",
				m, f.MAPE, b.MAPE, d, DriftTolerance))
		}
		if f.Pearson < b.Pearson-DriftTolerance {
			bad = append(bad, fmt.Sprintf("%s: Pearson r %.4f fell below baseline %.4f",
				m, f.Pearson, b.Pearson))
		}
	}
	return bad
}
