package obs

import "time"

// Phases is one simulation's wall-clock split into the three per-cell
// stages: the wait for the workload trace (its generation, or the rest of
// it when another goroutine is generating it; near zero when the
// in-process trace registry already holds the trace, as it does when a
// sweep generated it ahead while the previous cell simulated), platform
// construction (device arrays, caches, channel models), and the
// discrete-event loop itself.
// Durations marshal as integer nanoseconds, so the breakdown is
// machine-readable from the job API and the worker wire protocol.
type Phases struct {
	TraceGen      time.Duration `json:"trace_gen_ns"`
	PlatformBuild time.Duration `json:"platform_build_ns"`
	EventLoop     time.Duration `json:"event_loop_ns"`
}

// Add accumulates q into p.
func (p *Phases) Add(q Phases) {
	p.TraceGen += q.TraceGen
	p.PlatformBuild += q.PlatformBuild
	p.EventLoop += q.EventLoop
}

// Total returns the summed phase time.
func (p Phases) Total() time.Duration {
	return p.TraceGen + p.PlatformBuild + p.EventLoop
}

// IsZero reports whether no phase was measured (cache hits, shared
// single-flight results, analytical estimates).
func (p Phases) IsZero() bool { return p == Phases{} }
