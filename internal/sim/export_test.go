package sim

// SetSeq sets the sequence number the next Reschedule takes, so a test can
// reach the 2^32 limit without scheduling billions of events.
func (e *Engine) SetSeq(seq uint64) { e.seq = seq }
