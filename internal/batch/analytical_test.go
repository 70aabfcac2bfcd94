package batch

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/twin"
)

// TestAnalyticalCacheKeyDisjoint proves analytical and DES results can
// never collide in the content-addressed cache: the same cell hashes
// differently per execution mode, while the DES key is computed exactly
// as before the analytical mode existed (the salt block is only written
// for analytical cells).
func TestAnalyticalCacheKeyDisjoint(t *testing.T) {
	des := Cell{Config: config.Default(config.OhmBW, config.Planar), Workload: "lud"}
	ana := des
	ana.Exec = config.ExecAnalytical

	kDES, err := des.Key()
	if err != nil {
		t.Fatal(err)
	}
	kAna, err := ana.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kDES == kAna {
		t.Fatal("analytical cell key collides with the DES key for the same cell")
	}

	// The zero Exec value is DES: an explicitly-DES cell must hash
	// identically to a legacy cell that never heard of execution modes.
	explicit := des
	explicit.Exec = config.ExecDES
	if k, _ := explicit.Key(); k != kDES {
		t.Fatal("explicit ExecDES changed the cache key of a legacy cell")
	}

	// Analytical keys are deterministic across calls.
	if k2, _ := ana.Key(); k2 != kAna {
		t.Fatal("analytical key is not deterministic")
	}
}

func TestRunnerAnalyticalCellMatchesTwin(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	w, ok := config.WorkloadByName("bfstopo")
	if !ok {
		t.Fatal("workload missing")
	}
	want := twin.Estimate(&cfg, w)

	r := &Runner{Workers: 2, Cache: NewMemCache()}
	cells := []Cell{{Config: cfg, Workload: "bfstopo", Exec: config.ExecAnalytical}}
	reps, err := r.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Elapsed != want.Elapsed || reps[0].IPC != want.IPC {
		t.Fatalf("runner analytical report differs from twin.Estimate: %+v vs %+v", reps[0], want)
	}
	st := r.Stats()
	if st.Analytical != 1 {
		t.Fatalf("Stats.Analytical = %d, want 1", st.Analytical)
	}
	if st.Misses != 1 {
		t.Fatalf("Stats.Misses = %d, want 1", st.Misses)
	}

	// Second run is a cache hit, still counted as analytical work.
	if _, err := r.Run(cells); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Hits != 1 {
		t.Fatalf("Stats.Hits = %d, want 1 (analytical results must be cacheable)", st.Hits)
	}
	if st.Analytical != 2 {
		t.Fatalf("Stats.Analytical = %d, want 2", st.Analytical)
	}
}

// TestAnalyticalRejectsVariants: the twin models none of the run
// variants, so an analytical variant cell fails instead of answering with
// the default run's estimate under the variant's key.
func TestAnalyticalRejectsVariants(t *testing.T) {
	r := &Runner{Workers: 1, Cache: NewMemCache()}
	cell := Cell{Config: config.Default(config.Origin, config.Planar), Workload: "lud",
		Exec: config.ExecAnalytical, Variant: core.InstantHost}
	if _, err := r.Run([]Cell{cell}); err == nil || !strings.Contains(err.Error(), "run variant") {
		t.Fatalf("Runner accepted an analytical variant cell: %v", err)
	}
	if st := r.Stats(); st.Misses != 0 {
		t.Fatalf("rejected cell counted as computed: %+v", st)
	}
}

// TestAnalyticalUnknownWorkloadErrors: a cell naming no Table II workload
// fails in both exec modes. The runner, not the simulator, resolves the
// name, so DES mode must report it the same way.
func TestAnalyticalUnknownWorkloadErrors(t *testing.T) {
	for _, exec := range []config.ExecMode{config.ExecAnalytical, config.ExecDES} {
		r := &Runner{Workers: 1, Cache: NewMemCache()}
		cell := Cell{Config: config.Default(config.Oracle, config.Planar), Workload: "no-such-kernel", Exec: exec}
		if _, err := r.Run([]Cell{cell}); err == nil || !strings.Contains(err.Error(), "unknown workload") {
			t.Fatalf("exec %v: want unknown-workload error, got %v", exec, err)
		}
	}
}

// TestAnalyticalInlineWorkloadDef checks analytical cells accept inline
// workload definitions (the ohmserve custom-workload path) without
// consulting the Table II registry.
func TestAnalyticalInlineWorkloadDef(t *testing.T) {
	def := config.Workload{Name: "inline", APKI: 50, ReadRatio: 0.8, FootprintScale: 1.5, HotSkew: 0.9}
	cfg := config.Default(config.OhmWOM, config.Planar)
	r := &Runner{Workers: 1, Cache: NewMemCache()}
	reps, err := r.Run([]Cell{{Config: cfg, Workload: "inline", WorkloadDef: &def, Exec: config.ExecAnalytical}})
	if err != nil {
		t.Fatal(err)
	}
	want := twin.Estimate(&cfg, def)
	if reps[0].Elapsed != want.Elapsed {
		t.Fatalf("inline def report %v != twin estimate %v", reps[0].Elapsed, want.Elapsed)
	}
}

// TestEstimateCost pins the dry-run cost model's mode split.
func TestEstimateCost(t *testing.T) {
	cfg := config.Default(config.Oracle, config.Planar)
	cells := []Cell{
		{Config: cfg, Workload: "lud"},
		{Config: cfg, Workload: "sssp"},
		{Config: cfg, Workload: "lud", Exec: config.ExecAnalytical},
	}
	c := EstimateCost(cells)
	if c.Cells != 3 || c.DESCells != 2 || c.AnalyticalCells != 1 {
		t.Fatalf("EstimateCost split wrong: %+v", c)
	}
	if want := 2*DESCellCost + 1*AnalyticalCellCost; c.Estimated != want {
		t.Fatalf("Estimated = %v, want %v", c.Estimated, want)
	}
}
