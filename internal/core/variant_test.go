package core

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// TestVariantStringsPinned pins every variant's string: the value feeds
// the cache key and the dist wire, so a renamed constant would silently
// orphan every cached figure and ablation cell.
func TestVariantStringsPinned(t *testing.T) {
	for v, want := range map[Variant]string{
		DefaultRun:   "",
		SSDHost:      "fig3a-ssd",
		InstantHost:  "fig3b-instant-host",
		WearProbe:    "endurance-wear",
		MaxWearProbe: "abl-max-wear",
		MergesProbe:  "abl-mshr-merges",
		BorrowsProbe: "abl-vc-borrows",
		Phased(1):    "abl-phased-1",
		Phased(8):    "abl-phased-8",
	} {
		if string(v) != want {
			t.Errorf("variant %q, want %q", v, want)
		}
		if _, err := v.phases(); err != nil {
			t.Errorf("%q: %v", v, err)
		}
	}
}

// TestRunRejectsUnknownVariants: variants arrive from remote coordinators,
// so anything outside the closed set — including a non-canonical spelling
// of a phased variant, which would key apart from its canonical twin —
// is an error before anything is built, never a panic.
func TestRunRejectsUnknownVariants(t *testing.T) {
	w, _ := config.WorkloadByName("lud")
	cfg := fastCfg(config.OhmBase, config.Planar)
	for _, v := range []Variant{"nope", "FIG3A-SSD", "abl-phased-", "abl-phased-0",
		"abl-phased--1", "abl-phased-04", "abl-phased-x", "abl-phased-99999999999999999999"} {
		if _, _, err := Run(nil, cfg, w, v); err == nil || !strings.Contains(err.Error(), "unknown run variant") {
			t.Errorf("Run accepted variant %q: %v", v, err)
		}
	}
}

// TestVariantsFoldTheirCounters runs each variant once and checks the keys
// it reports. Probes of a component the platform lacks read 0, and the
// one-phase trace is the shared trace, so it reports what the default run
// does.
func TestVariantsFoldTheirCounters(t *testing.T) {
	w, _ := config.WorkloadByName("backp")
	run := func(p config.Platform, v Variant) map[string]float64 {
		t.Helper()
		cfg := fastCfg(p, config.Planar)
		cfg.GPU.MSHREntries = 64
		rep, _, err := Run(nil, cfg, w, v)
		if err != nil {
			t.Fatalf("%s/%s: %v", p, v, err)
		}
		return rep.Extra
	}
	if x := run(config.Origin, SSDHost); x["ssd-storage-s"] <= 0 || x["ssd-dma-s"] <= 0 {
		t.Errorf("SSD host reported no pipeline occupancy: %v", x)
	}
	if x := run(config.OhmBW, WearProbe); x[ProbePrefix+"max-wear"] <= 0 ||
		x[ProbePrefix+"total-writes"] < x[ProbePrefix+"max-wear"] || x[ProbePrefix+"wear-lines"] <= 0 {
		t.Errorf("wear probe on Ohm-BW: %v", x)
	}
	for _, c := range []struct {
		p   config.Platform
		v   Variant
		key string
	}{
		{config.Oracle, MaxWearProbe, "max-wear"},
		{config.Hetero, BorrowsProbe, "borrows"},
		{config.Origin, WearProbe, "wear-lines"},
	} {
		if got, ok := run(c.p, c.v)[ProbePrefix+c.key]; !ok || got != 0 {
			t.Errorf("%s on %s: %s = %v (present %v), want 0", c.v, c.p, c.key, got, ok)
		}
	}
	if x := run(config.OhmBW, MergesProbe); x[ProbePrefix+"merges"] <= 0 {
		t.Errorf("MSHR probe counted no merges: %v", x)
	}
	cfg := fastCfg(config.OhmBase, config.Planar)
	plain, _, err := Run(nil, cfg, w, DefaultRun)
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := Run(nil, cfg, w, Phased(1))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != one.Elapsed || plain.MemRequests != one.MemRequests {
		t.Errorf("Phased(1) diverges from the default run: %v vs %v", one, plain)
	}
}
