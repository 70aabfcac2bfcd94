package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/batch"
)

func TestRegistryCoversEveryDriver(t *testing.T) {
	want := []string{
		"abl-division", "abl-mshr", "abl-noc", "abl-pagesize", "abl-phases",
		"abl-startgap", "abl-threshold", "endurance",
		"fig16", "fig17", "fig18", "fig19", "fig20a", "fig20b", "fig21",
		"fig3a", "fig3b", "fig8", "table2", "table3",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s (IDs must be sorted)", i, got[i], want[i])
		}
	}
	ds := Drivers()
	for i, d := range ds {
		if d.ID != want[i] {
			t.Fatalf("Drivers()[%d] = %s, want %s", i, d.ID, want[i])
		}
		if d.Title == "" {
			t.Fatalf("%s has no title", d.ID)
		}
		wantPer := strings.HasPrefix(d.ID, "abl-") || d.ID == "endurance"
		if d.PerWorkload != wantPer {
			t.Fatalf("%s PerWorkload = %v", d.ID, d.PerWorkload)
		}
	}
	if _, ok := Lookup("FIG16"); !ok {
		t.Fatal("Lookup must be case-insensitive")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup invented a driver")
	}
}

func TestParamsResolution(t *testing.T) {
	var p Params
	if o := p.Options(); len(o.Workloads) != 0 || o.MaxInstructions != 0 {
		t.Fatalf("zero params must keep full configuration, got %+v", o)
	}
	if p.AblWorkload() != "pagerank" {
		t.Fatalf("default ablation workload = %s", p.AblWorkload())
	}

	p = Params{Quick: true}
	o := p.Options()
	if len(o.Workloads) != 3 || o.MaxInstructions != 4000 {
		t.Fatalf("quick preset = %+v", o)
	}
	// `ohmfig -quick abl-*` has always studied the preset's first workload.
	if p.AblWorkload() != "lud" {
		t.Fatalf("quick ablation subject = %s, want lud", p.AblWorkload())
	}

	// Explicit fields win over the quick preset; Workload wins over
	// Workloads[0] for the single-workload drivers.
	p = Params{Quick: true, Workloads: []string{"sssp"}, MaxInstructions: 700, Workload: "lud"}
	o = p.Options()
	if len(o.Workloads) != 1 || o.Workloads[0] != "sssp" || o.MaxInstructions != 700 {
		t.Fatalf("explicit fields lost under quick: %+v", o)
	}
	if p.AblWorkload() != "lud" {
		t.Fatalf("AblWorkload = %s, want lud", p.AblWorkload())
	}
	if (Params{Workloads: []string{"sssp"}}).AblWorkload() != "sssp" {
		t.Fatal("AblWorkload must fall back to Workloads[0]")
	}

	// Params is the wire form: it must round-trip through JSON.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "lud" || back.MaxInstructions != 700 || !back.Quick {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

// TestDriverRunsOnInjectedEngine proves a registry driver routes its cells
// through a caller-owned engine — the contract the ohmserve job manager
// depends on for per-job cancellation and progress.
func TestDriverRunsOnInjectedEngine(t *testing.T) {
	d, ok := Lookup("abl-noc")
	if !ok {
		t.Fatal("abl-noc not registered")
	}
	runner := batch.NewRunner(2, batch.NewMemCache())
	var cellsSeen int
	o := Options{
		Workloads:       []string{"lud"},
		MaxInstructions: 300,
		Engine: &Engine{
			Executor: runner,
			Ctx:      context.Background(),
			Progress: func(done, total int, _ batch.Outcome) {
				cellsSeen = done
			},
		},
	}
	r, err := d.Run(o, "lud")
	if err != nil {
		t.Fatal(err)
	}
	if cellsSeen != 2 {
		t.Fatalf("progress saw %d cells, want 2 (constant-latency + crossbar)", cellsSeen)
	}
	if st := runner.Stats(); st.Misses != 2 {
		t.Fatalf("injected runner stats = %+v, want 2 misses", st)
	}
	if !strings.Contains(r.Render(), "crossbar") {
		t.Fatalf("unexpected render:\n%s", r.Render())
	}
	// A cancelled engine context must abort the driver.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Engine.Ctx = ctx
	if _, err := d.Run(o, "lud"); err == nil {
		t.Fatal("driver ignored a cancelled engine context")
	}
}

func TestEncodeResultJSONShape(t *testing.T) {
	var b strings.Builder
	if err := EncodeResultJSON(&b, "table3", Table3()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "{\n  \"id\": \"table3\",\n  \"result\":") {
		t.Fatalf("unexpected document prefix:\n%s", out[:60])
	}
	var doc struct {
		ID     string          `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != "table3" || len(doc.Result) == 0 {
		t.Fatalf("document lost fields: %+v", doc)
	}
}
