// Package ddrt models the asynchronous DDR-T protocol between the memory
// controller and the XPoint controller, including the new handshakes the
// paper adds for its migration functions: the swap handshake of Figure 11
// (Precharge/Activate -> SWAP-CMD -> read/write by the DDR sequence
// generator -> Ready -> Confirm) and the reverse-write handshake of
// Figure 12 (Ready -> Confirm -> write + snarf -> Complete).
//
// The simulator's timing lives in internal/hmem; this package provides the
// message vocabulary and protocol state machines that verify a controller
// emits legal sequences — the same role a bus-functional checker plays in
// hardware bring-up.
package ddrt

import "fmt"

// Msg is one protocol message on the channel.
type Msg int

const (
	// MsgRead is a DDR-T asynchronous read command.
	MsgRead Msg = iota
	// MsgWrite is a DDR-T asynchronous write command (buffered ack).
	MsgWrite
	// MsgData is a data packet in either direction.
	MsgData
	// MsgPrecharge is the DDR precharge the MC issues while presetting a
	// bank for the swap function (Figure 11 step 1).
	MsgPrecharge
	// MsgActivate is the DDR activate of the same preset.
	MsgActivate
	// MsgSwapCmd is the new SWAP-CMD carrying DRAM address, XPoint address
	// and size (Figure 11 step 2).
	MsgSwapCmd
	// MsgSeqRead is a DRAM read issued by the XPoint controller's DDR
	// sequence generator (Figure 11 step 3).
	MsgSeqRead
	// MsgSeqWrite is a DRAM write issued by the DDR sequence generator
	// (Figure 11 step 4).
	MsgSeqWrite
	// MsgReady is the XPoint controller's ready signal (Figure 11 step 5,
	// Figure 12 step 1).
	MsgReady
	// MsgConfirm is the memory controller's confirmation (Figure 11 step 6,
	// Figure 12 step 2).
	MsgConfirm
	// MsgComplete is the completion signal ending a reverse-write
	// (Figure 12 step 4).
	MsgComplete
)

var msgNames = [...]string{
	"read", "write", "data", "precharge", "activate", "swap-cmd",
	"seq-read", "seq-write", "ready", "confirm", "complete",
}

func (m Msg) String() string {
	if m < 0 || int(m) >= len(msgNames) {
		return fmt.Sprintf("Msg(%d)", int(m))
	}
	return msgNames[m]
}

// SwapHandshake validates the Figure 11 sequence. States advance on Step;
// illegal messages return an error identifying the violation.
type SwapHandshake struct {
	state swapState
	reads int
	wrote int
}

type swapState int

const (
	swapIdle swapState = iota
	swapPreset
	swapIssued
	swapMigrating
	swapReady
	swapDone
)

// Step feeds one message to the checker.
func (h *SwapHandshake) Step(m Msg) error {
	switch h.state {
	case swapIdle:
		switch m {
		case MsgPrecharge, MsgActivate:
			h.state = swapPreset
			return nil
		case MsgSwapCmd:
			// Legal when the target row is already open: no preset needed.
			h.state = swapIssued
			return nil
		}
	case swapPreset:
		switch m {
		case MsgPrecharge, MsgActivate:
			return nil // presetting may take both commands
		case MsgSwapCmd:
			h.state = swapIssued
			return nil
		}
	case swapIssued:
		switch m {
		case MsgSeqRead:
			h.state = swapMigrating
			h.reads++
			return nil
		}
	case swapMigrating:
		switch m {
		case MsgSeqRead:
			h.reads++
			return nil
		case MsgSeqWrite:
			h.wrote++
			return nil
		case MsgReady:
			if h.wrote == 0 {
				return fmt.Errorf("ddrt: ready before any seq-write")
			}
			h.state = swapReady
			return nil
		}
	case swapReady:
		if m == MsgConfirm {
			h.state = swapDone
			return nil
		}
	case swapDone:
		return fmt.Errorf("ddrt: message %s after swap completed", m)
	}
	return fmt.Errorf("ddrt: illegal %s in swap state %d", m, h.state)
}

// Done reports whether the handshake completed.
func (h *SwapHandshake) Done() bool { return h.state == swapDone }

// Reset returns the checker to idle.
func (h *SwapHandshake) Reset() { *h = SwapHandshake{} }

// ReverseWriteHandshake validates the Figure 12 sequence: Ready -> Confirm
// -> (XPoint writes DRAM while the MC snarfs) -> Complete.
type ReverseWriteHandshake struct {
	state  rwState
	writes int
}

type rwState int

const (
	rwIdle rwState = iota
	rwReadySent
	rwConfirmed
	rwDone
)

// Step feeds one message to the checker.
func (h *ReverseWriteHandshake) Step(m Msg) error {
	switch h.state {
	case rwIdle:
		if m == MsgReady {
			h.state = rwReadySent
			return nil
		}
	case rwReadySent:
		if m == MsgConfirm {
			h.state = rwConfirmed
			return nil
		}
	case rwConfirmed:
		switch m {
		case MsgSeqWrite, MsgData:
			h.writes++
			return nil
		case MsgComplete:
			if h.writes == 0 {
				return fmt.Errorf("ddrt: complete before any data")
			}
			h.state = rwDone
			return nil
		}
	case rwDone:
		return fmt.Errorf("ddrt: message %s after reverse-write completed", m)
	}
	return fmt.Errorf("ddrt: illegal %s in reverse-write state %d", m, h.state)
}

// Done reports whether the handshake completed.
func (h *ReverseWriteHandshake) Done() bool { return h.state == rwDone }

// Reset returns the checker to idle.
func (h *ReverseWriteHandshake) Reset() { *h = ReverseWriteHandshake{} }

// SwapSequence returns the canonical legal message sequence for a swap
// migrating nLines lines in each direction — what the hmem controller's
// MigrWOM/MigrBW path logically emits.
func SwapSequence(nLines int, rowOpen bool) []Msg {
	return AppendSwapSequence(nil, nLines, rowOpen)
}

// AppendSwapSequence appends SwapSequence(nLines, rowOpen) to dst and
// returns the extended slice, so a caller that keeps its buffer checks
// every swap without allocating.
func AppendSwapSequence(dst []Msg, nLines int, rowOpen bool) []Msg {
	if !rowOpen {
		dst = append(dst, MsgPrecharge, MsgActivate)
	}
	dst = append(dst, MsgSwapCmd)
	for i := 0; i < nLines; i++ {
		dst = append(dst, MsgSeqRead)
	}
	for i := 0; i < nLines; i++ {
		dst = append(dst, MsgSeqWrite)
	}
	return append(dst, MsgReady, MsgConfirm)
}

// ReverseWriteSequence returns the canonical legal reverse-write sequence
// for nLines lines.
func ReverseWriteSequence(nLines int) []Msg {
	return AppendReverseWriteSequence(nil, nLines)
}

// AppendReverseWriteSequence appends ReverseWriteSequence(nLines) to dst
// and returns the extended slice.
func AppendReverseWriteSequence(dst []Msg, nLines int) []Msg {
	dst = append(dst, MsgReady, MsgConfirm)
	for i := 0; i < nLines; i++ {
		dst = append(dst, MsgSeqWrite)
	}
	return append(dst, MsgComplete)
}
