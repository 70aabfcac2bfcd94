package xpoint

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

const lineB = 128

func ctrl() *Controller {
	return NewController(config.DefaultXPoint(), 1<<20, lineB)
}

func TestDeviceLatencies(t *testing.T) {
	cfg := config.DefaultXPoint()
	d := NewDevice(cfg, lineB, 8)
	if done := d.Read(0, 0); done != cfg.ReadLatency {
		t.Fatalf("read done at %s, want %s", done, cfg.ReadLatency)
	}
	if done := d.Write(cfg.ReadLatency, lineB); done != cfg.ReadLatency+cfg.WriteLatency {
		t.Fatalf("write latency wrong: %s", done)
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("counters r=%d w=%d", d.Reads, d.Writes)
	}
}

func TestDevicePartitionParallelism(t *testing.T) {
	cfg := config.DefaultXPoint()
	d := NewDevice(cfg, lineB, 8)
	// Lines 0 and 1 land in different partitions: both complete at ReadLatency.
	d0 := d.Read(0, 0)
	d1 := d.Read(0, lineB)
	if d0 != cfg.ReadLatency || d1 != cfg.ReadLatency {
		t.Fatalf("parallel partitions serialized: %s %s", d0, d1)
	}
	// Same partition serializes.
	d2 := d.Read(0, 8*lineB)
	if d2 != 2*cfg.ReadLatency {
		t.Fatalf("same-partition read must queue: %s", d2)
	}
}

// TestDeviceSinglePartition: one partition, the least xpoint.partitions
// validates at, serializes reads that distinct partitions would overlap.
func TestDeviceSinglePartition(t *testing.T) {
	cfg := config.DefaultXPoint()
	d := NewDevice(cfg, lineB, 1)
	if d0, d1 := d.Read(0, 0), d.Read(0, lineB); d0 != cfg.ReadLatency || d1 != 2*cfg.ReadLatency {
		t.Fatalf("one partition: reads done at %s and %s, want %s and %s", d0, d1, cfg.ReadLatency, 2*cfg.ReadLatency)
	}
}

func TestStartGapBijective(t *testing.T) {
	sg := NewStartGap(100, 5)
	for round := 0; round < 30; round++ {
		seen := make(map[int64]bool)
		for l := int64(0); l < 100; l++ {
			p := sg.Translate(l)
			if p < 0 || p > 100 {
				t.Fatalf("physical %d out of range", p)
			}
			if p == sg.gap {
				t.Fatalf("logical %d mapped onto the gap %d", l, sg.gap)
			}
			if seen[p] {
				t.Fatalf("mapping not injective at round %d", round)
			}
			seen[p] = true
		}
		for i := 0; i < 7; i++ {
			sg.OnWrite()
		}
	}
}

func TestStartGapMovesEveryK(t *testing.T) {
	sg := NewStartGap(10, 3)
	moves := 0
	for i := 0; i < 30; i++ {
		if sg.OnWrite() {
			moves++
		}
	}
	if moves != 10 {
		t.Fatalf("gap moved %d times in 30 writes with K=3, want 10", moves)
	}
	if sg.GapMoves != 10 {
		t.Fatalf("GapMoves = %d", sg.GapMoves)
	}
}

func TestStartGapDisabled(t *testing.T) {
	sg := NewStartGap(10, 0)
	for i := 0; i < 100; i++ {
		if sg.OnWrite() {
			t.Fatal("disabled start-gap must never move")
		}
	}
}

func TestStartGapFullRotation(t *testing.T) {
	// After (n+1)*K writes the gap wraps and start advances: still bijective.
	sg := NewStartGap(8, 1)
	for i := 0; i < 9; i++ {
		sg.OnWrite()
	}
	if sg.start != 1 {
		t.Fatalf("start = %d after full gap rotation, want 1", sg.start)
	}
	seen := make(map[int64]bool)
	for l := int64(0); l < 8; l++ {
		p := sg.Translate(l)
		if seen[p] {
			t.Fatal("mapping broken after rotation")
		}
		seen[p] = true
	}
}

func TestStartGapPanicsOutOfRange(t *testing.T) {
	sg := NewStartGap(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range logical line")
		}
	}()
	sg.Translate(10)
}

func TestControllerReadLatency(t *testing.T) {
	c := ctrl()
	cfg := config.DefaultXPoint()
	if done := c.Read(0, 0); done != cfg.ReadLatency {
		t.Fatalf("controller read done %s, want %s", done, cfg.ReadLatency)
	}
}

func TestControllerWriteAckFastWhenBuffered(t *testing.T) {
	c := ctrl()
	// With free write-buffer slots, DDR-T acks immediately: the channel is
	// not held for the 763ns media write.
	if ack := c.Write(100, 0); ack != 100 {
		t.Fatalf("buffered write ack at %s, want 100ps", ack)
	}
	if c.BufferedWrites != 1 || c.StalledWrites != 0 {
		t.Fatalf("buffered=%d stalled=%d", c.BufferedWrites, c.StalledWrites)
	}
}

func TestControllerWriteBufferBackpressure(t *testing.T) {
	cfg := config.DefaultXPoint()
	cfg.WriteBufEnt = 2
	cfg.StartGapK = 0
	c := NewController(cfg, 1<<20, lineB)
	// Two writes to the same partition fill the buffer; the third must stall
	// until the earliest media write drains.
	c.Write(0, 0)
	c.Write(0, 8*lineB) // same partition 0 (8 partitions): drains at 2*WriteLatency
	ack := c.Write(0, 16*lineB)
	if ack == 0 {
		t.Fatal("third write should stall on a full buffer")
	}
	if c.StalledWrites != 1 {
		t.Fatalf("stalled = %d, want 1", c.StalledWrites)
	}
	if ack != cfg.WriteLatency {
		t.Fatalf("stalled ack at %s, want first drain %s", ack, cfg.WriteLatency)
	}
}

func TestControllerReadBufferBounded(t *testing.T) {
	cfg := config.DefaultXPoint()
	cfg.ReadBufEnt = 4
	c := NewController(cfg, 1<<20, lineB)
	var latest sim.Time
	for i := 0; i < 16; i++ {
		if done := c.Read(0, uint64(i)*lineB); done > latest {
			latest = done
		}
	}
	// 16 concurrent reads through a 4-entry read buffer cannot all finish
	// at one ReadLatency even with unlimited media parallelism.
	if latest <= cfg.ReadLatency {
		t.Fatalf("read buffer not limiting: latest done %s", latest)
	}
}

func TestWearTracking(t *testing.T) {
	cfg := config.DefaultXPoint()
	cfg.StartGapK = 0 // isolate wear accounting
	c := NewController(cfg, 1<<20, lineB)
	for i := 0; i < 10; i++ {
		c.Write(sim.Time(i)*sim.Microsecond*100, 0)
	}
	ws := c.Wear()
	if ws.Max != 10 {
		t.Fatalf("max wear = %d, want 10", ws.Max)
	}
	if ws.Total != 10 {
		t.Fatalf("total wear = %d, want 10", ws.Total)
	}
	if c.ExceedsEndurance() {
		t.Fatal("10 writes must not exceed endurance")
	}
}

func TestStartGapSpreadsWear(t *testing.T) {
	// Hammering one logical line: with Start-Gap the writes spread across
	// physical lines; without it they pile onto one line. This is the whole
	// point of the scheme.
	mk := func(k int) uint64 {
		cfg := config.DefaultXPoint()
		cfg.StartGapK = k
		cfg.WriteBufEnt = 1 << 20
		c := NewController(cfg, 64*lineB, lineB)
		for i := 0; i < 640; i++ {
			c.Write(sim.Time(i)*sim.Millisecond, 0)
		}
		return c.Wear().Max
	}
	withSG := mk(1) // one gap move per write: ~10 full rotations in 640 writes
	without := mk(0)
	if without != 640 {
		t.Fatalf("static mapping max wear = %d, want 640", without)
	}
	if withSG >= without/3 {
		t.Fatalf("start-gap max wear %d not sufficiently below static %d", withSG, without)
	}
}

func TestSnarfAccounting(t *testing.T) {
	c := ctrl()
	c.Snarf(128)
	c.Snarf(128)
	if c.SnarfedBytes != 256 {
		t.Fatalf("snarfed = %d", c.SnarfedBytes)
	}
}

func TestSwapWriteAndReverseRead(t *testing.T) {
	cfg := config.DefaultXPoint()
	c := NewController(cfg, 1<<20, lineB)
	done := c.SwapWrite(0, 0)
	if done != cfg.WriteLatency {
		t.Fatalf("swap write done %s", done)
	}
	if c.SwapOps != 1 {
		t.Fatal("swap op not counted")
	}
	rdone := c.ReverseRead(done, lineB)
	if rdone != done+cfg.ReadLatency {
		t.Fatalf("reverse read done %s", rdone)
	}
	if c.ReverseWrites != 1 {
		t.Fatal("reverse write not counted")
	}
}

func TestDrainedBy(t *testing.T) {
	cfg := config.DefaultXPoint()
	cfg.StartGapK = 0
	c := NewController(cfg, 1<<20, lineB)
	c.Write(0, 0)
	c.Write(0, lineB)
	if got := c.DrainedBy(0); got != cfg.WriteLatency {
		t.Fatalf("DrainedBy = %s, want %s", got, cfg.WriteLatency)
	}
}

func TestAddressWrapping(t *testing.T) {
	// Addresses beyond capacity wrap instead of panicking: the hmem layer
	// scales footprints, but defensive wrapping keeps property tests honest.
	c := NewController(config.DefaultXPoint(), 16*lineB, lineB)
	done := c.Read(0, 1<<40)
	if done <= 0 {
		t.Fatal("wrapped read failed")
	}
}

// Property: translate is always a bijection avoiding the gap, for arbitrary
// write interleavings.
func TestStartGapBijectionProperty(t *testing.T) {
	f := func(writes uint16, n uint8) bool {
		lines := int64(n%60) + 2
		sg := NewStartGap(lines, 3)
		for i := 0; i < int(writes%500); i++ {
			sg.OnWrite()
		}
		seen := make(map[int64]bool)
		for l := int64(0); l < lines; l++ {
			p := sg.Translate(l)
			if p == sg.gap || p < 0 || p > lines || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: controller write acks are never before the request time.
func TestWriteAckMonotonicProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := ctrl()
		at := sim.Time(0)
		for _, a := range addrs {
			ack := c.Write(at, uint64(a)*lineB)
			if ack < at {
				return false
			}
			at += 10 * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
