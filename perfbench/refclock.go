package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by a
// fifth or more over minutes as its neighbours come and go. Wall time alone
// would measure that drift. So the benchmark interleaves the program's jobs
// with ticks of a reference kernel, a fixed piece of work written here in
// the benchmark, whose cost no change to the program can alter, and reports
// every job time on a reference clock: wall time scaled by how much slower
// or faster than nominal the kernel ran at that moment.

// refKernel is the reference work, the kinds of work the simulator's event
// loop does: a binary-heap event queue on its own, then the queue with a
// hash map and random reads and writes over a table larger than a core's
// L2 cache. Of the kernels tried, this pair's speed followed the
// simulator's most closely as the host's speed drifted. It allocates
// nothing after construction.
type refKernel struct {
	table []uint64
	heap  []uint64
	m     map[uint64]uint64
	x     uint64
	sink  uint64
}

const (
	refTableWords = 2 << 20 // 16 MiB
	refHeapLen    = 4096
	refMapLen     = 16384
	// heapSteps and refSteps are one tick's work, about 13 ms on the
	// nominal host.
	heapSteps = 100000
	refSteps  = 15000
	// nominalTick is one tick's wall time on the nominal host (a 2-vCPU
	// Intel Xeon VM at 2.0 GHz), so that times on the reference clock read
	// like wall times there.
	nominalTick = 13 * time.Millisecond
	// tickEvery is the least wall time between two ticks.
	tickEvery = 200 * time.Millisecond
	// tickSpan is how many ticks nearest a job scale its time.
	tickSpan = 5
)

func newRefKernel() *refKernel {
	k := &refKernel{
		table: make([]uint64, refTableWords),
		heap:  make([]uint64, 0, refHeapLen+1),
		m:     make(map[uint64]uint64, refMapLen),
		x:     1,
	}
	for i := range k.table {
		k.table[i] = mix64(0, uint64(i))
	}
	for i := 0; i < refHeapLen; i++ {
		k.push(mix64(1, uint64(i)))
	}
	for i := uint64(0); i < refMapLen; i++ {
		k.m[mix64(2, i)%(4*refMapLen)] = i
	}
	return k
}

// next is xorshift64.
func (k *refKernel) next() uint64 {
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	return k.x
}

func (k *refKernel) push(v uint64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() uint64 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	k.heap = h
	return top
}

// step runs one tick's work.
func (k *refKernel) step() {
	for i := 0; i < heapSteps; i++ {
		k.push(k.pop() + k.next()%1024 + 1)
	}
	for i := 0; i < refSteps; i++ {
		r := k.next()
		t := k.pop()
		v := k.table[(t^r)%refTableWords]
		k.table[(v^r)%refTableWords] += t
		if old, ok := k.m[r%(4*refMapLen)]; ok {
			k.sink += old
			delete(k.m, r%(4*refMapLen))
			k.m[(r>>20)%(4*refMapLen)] = v
		}
		k.push(t + v%1024 + 1)
	}
}

// refClock converts wall time to reference time. Callers run it on the
// goroutine that drives the jobs, between jobs, so a tick and a job never
// overlap.
type refClock struct {
	k     *refKernel
	start time.Time
	last  time.Time
	at    []time.Duration // tick i ended at[i] after start
	took  []time.Duration // and took took[i]
}

func newRefClock() *refClock {
	c := &refClock{k: newRefKernel()}
	c.k.step() // fault the table in
	c.start = time.Now()
	return c
}

// now is the wall time since the clock started.
func (c *refClock) now() time.Duration { return time.Since(c.start) }

// maybeTick ticks if tickEvery has passed since the last tick.
func (c *refClock) maybeTick() {
	if len(c.at) == 0 || time.Since(c.last) >= tickEvery {
		c.tick()
	}
}

// tick runs the kernel once and records how long it took.
func (c *refClock) tick() {
	start := time.Now()
	c.k.step()
	c.last = time.Now()
	c.took = append(c.took, c.last.Sub(start))
	c.at = append(c.at, c.last.Sub(c.start))
}

// scale is nominalTick over the median of the tickSpan ticks nearest to
// wall time t: above 1 while the host runs fast, below 1 while it is slow.
func (c *refClock) scale(t time.Duration) float64 {
	n := len(c.at)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return c.at[i] >= t })
	lo := max(0, min(i-tickSpan/2, n-tickSpan))
	hi := min(n, lo+tickSpan)
	ds := make([]float64, 0, hi-lo)
	for _, d := range c.took[lo:hi] {
		ds = append(ds, float64(d))
	}
	return float64(nominalTick) / quantile(ds, 0.5)
}

// ref converts d of wall time, which ended at wall time end, to reference
// time.
func (c *refClock) ref(d, end time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale(end-d/2))
}

// medianSeconds is the median of the samples' times on the reference
// clock, in seconds.
func (c *refClock) medianSeconds(samples []jobSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = c.ref(s.wall, s.end).Seconds()
	}
	return quantile(xs, 0.5)
}

// ticks is every tick's wall time in milliseconds.
func (c *refClock) ticks() []float64 {
	out := make([]float64, len(c.took))
	for i, d := range c.took {
		out[i] = ms(d)
	}
	return out
}
