// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VI). Each driver returns a typed result with
// a Render method that prints the same rows/series the paper reports;
// cmd/ohmfig wires them to the command line and bench_test.go wraps them in
// testing.B benchmarks.
//
// Absolute numbers come from our simulator, not the authors' MacSim testbed;
// EXPERIMENTS.md records the paper-vs-measured comparison for every figure.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
)

// Options bounds an experiment's cost. The zero value means "full paper
// configuration": all ten Table II workloads at the default instruction
// budget.
type Options struct {
	// Workloads to evaluate; nil means all of Table II.
	Workloads []string
	// MaxInstructions per warp; 0 means the config default (20000).
	MaxInstructions int
	// Engine, when non-nil, routes the driver's cells to a caller-owned
	// runner with cancellation and progress reporting; nil uses the
	// package's shared runner. The ohmserve daemon sets it per job.
	Engine *Engine
}

// Engine overrides where a driver's cells execute. The serving layer gives
// every job its own cancellation context and progress feed while sharing
// one process-wide executor — and therefore one result cache, concurrency
// cap and single-flight table — across jobs.
type Engine struct {
	// Executor runs the cells: a *batch.Runner, or the ohmserve
	// coordinator that fans cells out to remote workers. It must be set.
	Executor batch.Executor
	// Ctx cancels cell scheduling; nil means context.Background().
	Ctx context.Context
	// Progress observes per-cell completions of every batch the driver
	// submits (figure drivers submit several sequential batches).
	Progress batch.Progress
}

func (o Options) workloads() []string {
	if len(o.Workloads) == 0 {
		return config.WorkloadNames()
	}
	return o.Workloads
}

func (o Options) apply(cfg *config.Config) {
	if o.MaxInstructions > 0 {
		cfg.MaxInstructions = o.MaxInstructions
	}
}

// sharedRunner is the batch engine every figure driver submits its cells
// to: full GOMAXPROCS parallelism plus a process-wide in-memory result
// cache, so figures that visit the same (platform, mode, workload) cell —
// Figures 16-19 overlap heavily — simulate it once per process.
var sharedRunner = batch.NewRunner(0, batch.NewMemCache())

// exec executes cells on the options' engine, defaulting to the shared
// parallel runner.
func (o Options) exec(cells []batch.Cell) ([]stats.Report, error) {
	eng := o.Engine
	if eng == nil {
		return sharedRunner.Run(cells)
	}
	ctx := eng.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return eng.Executor.RunContext(ctx, cells, eng.Progress)
}

// cell builds one default-configured sweep cell.
func (o Options) cell(p config.Platform, m config.MemMode, w string) batch.Cell {
	cfg := config.Default(p, m)
	o.apply(&cfg)
	return batch.Cell{Workload: w, Config: cfg}
}

// spec declares the option's grid over the given platforms and modes.
func (o Options) spec(modes []config.MemMode, platforms []config.Platform) batch.SweepSpec {
	return batch.SweepSpec{
		Platforms:       platforms,
		Modes:           modes,
		Workloads:       o.workloads(),
		MaxInstructions: o.MaxInstructions,
	}
}

// Grid is a workload x column numeric table used by most figures.
type Grid struct {
	Title string
	Unit  string
	Cols  []string
	Rows  []string // workload names
	Cells [][]float64
}

// NewGrid allocates a rows x cols grid.
func NewGrid(title, unit string, rows, cols []string) *Grid {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Grid{Title: title, Unit: unit, Cols: cols, Rows: rows, Cells: cells}
}

// Set stores a value.
func (g *Grid) Set(row, col int, v float64) { g.Cells[row][col] = v }

// Col returns a column by name; -1 if absent.
func (g *Grid) Col(name string) int {
	for i, c := range g.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// GeoMeanRow appends a geometric-mean summary row ("gmean").
func (g *Grid) GeoMeanRow() []float64 {
	out := make([]float64, len(g.Cols))
	for j := range g.Cols {
		prod, n := 1.0, 0
		for i := range g.Rows {
			v := g.Cells[i][j]
			if v > 0 {
				prod *= v
				n++
			}
		}
		if n > 0 {
			out[j] = math.Pow(prod, 1/float64(n))
		}
	}
	return out
}

// Render prints the grid in aligned columns with a gmean footer.
func (g *Grid) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", g.Title)
	if g.Unit != "" {
		fmt.Fprintf(&b, " (%s)", g.Unit)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-10s", "workload")
	for _, c := range g.Cols {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for i, r := range g.Rows {
		fmt.Fprintf(&b, "%-10s", r)
		for j := range g.Cols {
			fmt.Fprintf(&b, " %12.3f", g.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "gmean")
	for _, v := range g.GeoMeanRow() {
		fmt.Fprintf(&b, " %12.3f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// gatherReports runs a set of platforms over the option's workloads for one
// mode — all cells in parallel on the shared runner — and returns
// reports[workload][platform].
func (o Options) gatherReports(m config.MemMode, platforms []config.Platform) (map[string]map[config.Platform]stats.Report, error) {
	cells, err := o.spec([]config.MemMode{m}, platforms).Cells()
	if err != nil {
		return nil, err
	}
	reps, err := o.exec(cells)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[config.Platform]stats.Report)
	for i, c := range cells {
		if out[c.Workload] == nil {
			out[c.Workload] = make(map[config.Platform]stats.Report)
		}
		out[c.Workload][c.Config.Platform] = reps[i]
	}
	return out, nil
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
