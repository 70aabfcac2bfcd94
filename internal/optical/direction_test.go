package optical

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestDirectionsIndependent(t *testing.T) {
	c := chn(nil)
	// Saturate the forward path; a backward transfer must not queue.
	_, fwdEnd := c.Transfer(0, 0, Forward, 0, 1<<16, stats.RegularRequest)
	s, _ := c.Transfer(0, 0, Backward, 0, 128, stats.RegularRequest)
	if s >= fwdEnd {
		t.Fatalf("backward transfer queued behind forward path: start %s >= %s", s, fwdEnd)
	}
}

func TestSameDirectionSerializes(t *testing.T) {
	c := chn(nil)
	_, e0 := c.Transfer(0, 0, Backward, 0, 4096, stats.RegularRequest)
	s1, _ := c.Transfer(0, 0, Backward, 0, 4096, stats.RegularRequest)
	if s1 < e0 {
		t.Fatalf("same-direction transfers overlapped: %s < %s", s1, e0)
	}
}

func TestBackwardNeverPaysWOMTax(t *testing.T) {
	// The swap shares only the forward path's light (Figure 15); read
	// responses on the backward path keep full bandwidth.
	c := chn(nil)
	c.TransferWOMShared(0, 0, 1<<20) // WOM-active for a long window
	_, fwdEnd := c.Transfer(0, 0, Forward, 0, 4096, stats.RegularRequest)
	_, bwdEnd := c.Transfer(0, 0, Backward, 0, 4096, stats.RegularRequest)
	fwdDur := fwdEnd - c.cfg.DemuxSwitch - c.cfg.SerDesLatency
	bwdDur := bwdEnd - c.cfg.DemuxSwitch - c.cfg.SerDesLatency
	ratio := float64(fwdDur) / float64(bwdDur)
	if ratio < Overhead*0.95 || ratio > Overhead*1.05 {
		t.Fatalf("forward/backward duration ratio = %.3f, want ~%.1f (WOM tax on forward only)", ratio, Overhead)
	}
}

func TestDemuxSwitchPerDirection(t *testing.T) {
	// Device tracking is per direction: alternating devices on opposite
	// directions must not charge extra switches.
	c := chn(nil)
	c.Transfer(0, 0, Forward, 0, 64, stats.RegularRequest)
	c.Transfer(0, 1, Backward, 0, 64, stats.RegularRequest)
	c.Transfer(0, 0, Forward, 0, 64, stats.RegularRequest) // same fwd device: no switch
	c.Transfer(0, 1, Backward, 0, 64, stats.RegularRequest)
	if c.DemuxSwitches != 2 {
		t.Fatalf("demux switches = %d, want 2 (one cold grant per direction)", c.DemuxSwitches)
	}
}

func TestGapBackfillOnChannel(t *testing.T) {
	// A response booked at a future device-ready instant must not block a
	// command issued meanwhile on the same direction.
	c := chn(nil)
	future := 10 * sim.Microsecond
	c.Transfer(0, 0, Backward, future, 128, stats.RegularRequest)
	s, _ := c.Transfer(0, 0, Backward, 0, 128, stats.RegularRequest)
	if s >= future {
		t.Fatalf("earlier transfer queued behind future booking: start %s", s)
	}
}

func TestVCsTimesTwoDataResources(t *testing.T) {
	c := NewChannel(config.DefaultOptical(), mcs, nil)
	if c.VCs() != 6 {
		t.Fatalf("VCs = %d, want 6", c.VCs())
	}
	if len(c.data) != 12 {
		t.Fatalf("data resources = %d, want 12 (2 per VC)", len(c.data))
	}
}

func TestDynamicDivisionBorrowsIdleVC(t *testing.T) {
	cfg := config.DefaultOptical()
	cfg.DynamicDivision = true
	c := NewChannel(cfg, mcs, nil)
	// Backlog VC 0's forward path, then issue another transfer on VC 0: it
	// must borrow an idle VC and start immediately.
	c.Transfer(0, 0, Forward, 0, 1<<16, stats.RegularRequest)
	s, _ := c.Transfer(0, 0, Forward, 0, 128, stats.RegularRequest)
	if s != 0 {
		t.Fatalf("dynamic division did not borrow an idle VC: start %s", s)
	}
	if c.Borrows == 0 {
		t.Fatal("borrow not counted")
	}
}

func TestStaticDivisionNeverBorrows(t *testing.T) {
	c := chn(nil)
	c.Transfer(0, 0, Forward, 0, 1<<16, stats.RegularRequest)
	c.Transfer(0, 0, Forward, 0, 128, stats.RegularRequest)
	if c.Borrows != 0 {
		t.Fatal("static division must never borrow")
	}
}
