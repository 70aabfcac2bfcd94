package ssd

import (
	"testing"

	"repro/internal/sim"
)

func TestStageLatencyFloor(t *testing.T) {
	d := New(Default())
	done := d.Stage(0, 4096, false)
	cfg := Default()
	if done < cfg.ReadLatency+cfg.DMASetup {
		t.Fatalf("stage done %s, below latency floor", done)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	cfg := Default()
	r := New(cfg).Stage(0, 1<<20, false)
	w := New(cfg).Stage(0, 1<<20, true)
	if w <= r {
		t.Fatalf("write (%s) should be slower than read (%s)", w, r)
	}
}

func TestBandwidthDominatesLargeTransfers(t *testing.T) {
	cfg := Default()
	d := New(cfg)
	n := int64(64 << 20) // 64 MiB
	done := d.Stage(0, n, false)
	flashTime := sim.Time(float64(n) / cfg.BandwidthBps * 1e12)
	if done < flashTime {
		t.Fatalf("64MiB staged in %s, faster than flash bandwidth alone (%s)", done, flashTime)
	}
}

func TestPipelineSerializesOnFlash(t *testing.T) {
	d := New(Default())
	d1 := d.Stage(0, 1<<20, false)
	d2 := d.Stage(0, 1<<20, false)
	if d2 <= d1 {
		t.Fatal("second stage must queue behind the first on the flash")
	}
}

func TestAccounting(t *testing.T) {
	d := New(Default())
	d.Stage(0, 1000, false)
	if d.FlashBusy() <= 0 || d.DMABusy() <= 0 {
		t.Fatal("busy accounting missing")
	}
}
