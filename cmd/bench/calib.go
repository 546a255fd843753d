package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box a benchmark runs on does not keep one speed. On the shared
// 2-vCPU VM this benchmark was defined on, the same campaigns ran up to
// 50% slower from one minute to the next (other tenants contending for
// the host's cores and caches), with no steal time to account for it, so
// no number of samples inside a 20-second run could make wall times
// repeat between runs. A fixed calibration kernel slows with them: over
// ten minutes of campaign jobs alternating with kernel samples, the
// spread of the jobs' speed between 20-second windows was 13-18%, and of
// their speed relative to the kernel 2-3% (correlation 0.97-0.99).
//
// Every time the benchmark reports is therefore in reference seconds:
// the measured wall time scaled by how long the calibration kernel took
// during the same round of jobs, against calibNominalNs, its time on the
// reference box. The kernel is a small register-machine interpreter — the
// simulator's own shape, switch dispatch over a register file and a
// state table — in code that no change to the repository can speed up.
// Two choices made it track: the table is small enough to stay in the
// core's own caches, as the simulator's hot state does (a 4 MiB table
// tracked two to four times worse), and the work is shared out in
// chunks the way a campaign shares out its sites, so a sample measures
// what both CPUs deliver together rather than waiting on the slower one
// (a static split tracked four times worse).

// calibWords is the size of each worker's table (32 KiB).
const calibWords = 1 << 12

// calibSteps is one sample's interpreter loop count, shared out in
// calibChunk pieces.
const (
	calibSteps = 1_000_000
	calibChunk = 10_000
)

// calibNominalNs is one sample's wall time on the reference box (Intel
// Xeon, 2 vCPUs, GOMAXPROCS 2, Go 1.24) when quiet: the fastest tenth of
// samples over ten minutes took 10 ms. It fixes the unit, not the spread.
const calibNominalNs = 10e6

// calibEvery is how much job time may pass between samples; a sample
// costs about a tenth of it.
const calibEvery = 100 * time.Millisecond

// calibrator samples the box's speed between jobs.
type calibrator struct {
	tables [][]uint64
	ns     []float64
	due    time.Duration // job time since the last sample
}

// newCalibrator allocates one table per arena worker: jobs run on that
// many goroutines, so the kernel does too.
func newCalibrator(workers int) *calibrator {
	c := &calibrator{tables: make([][]uint64, workers)}
	for i := range c.tables {
		c.tables[i] = make([]uint64, calibWords)
	}
	c.sample() // touches the fresh tables; not a measurement
	c.ns = nil
	return c
}

// sample runs calibSteps kernel steps on all the tables' goroutines, each
// claiming the next chunk when it finishes one, and records the wall time.
// It first collects the garbage of the jobs before it, outside the timed
// interval: otherwise concurrent marking of that garbage would slow the
// kernel, and a change that allocates more would lower the factor and
// divide part of its own cost out of the reported times.
func (c *calibrator) sample() {
	runtime.GC()
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, t := range c.tables {
		wg.Add(1)
		go func(t []uint64) {
			defer wg.Done()
			for next.Add(calibChunk) <= calibSteps {
				calibSink.Add(calibKernel(calibChunk, t))
			}
		}(t)
	}
	wg.Wait()
	c.ns = append(c.ns, float64(time.Since(t0).Nanoseconds()))
	c.due = 0
}

// after accounts for one job's time and samples when a sample is due.
func (c *calibrator) after(job time.Duration) {
	c.due += job
	if c.due >= calibEvery {
		c.sample()
	}
}

// factorSince converts wall time to reference seconds for the stretch of
// the run since sample k: the reference box's sample time over the median
// of the samples taken since (the median, so that a sample a garbage
// collection lands in does not move it).
func (c *calibrator) factorSince(k int) float64 {
	return ratio(calibNominalNs, percentile(c.ns[k:], 0.5))
}

// calibSink keeps the kernel's result alive.
var calibSink atomic.Uint64

// calibKernel interprets a fixed nine-instruction program n times over a
// register file, loading and storing table entries at addresses the
// program computes.
func calibKernel(n int, table []uint64) uint64 {
	type inst struct{ op, a, b, c uint8 }
	prog := [...]inst{
		{0, 1, 1, 2},  // r1 += r2
		{1, 3, 1, 13}, // r3 = r1 << 13
		{2, 1, 1, 3},  // r1 ^= r3
		{3, 4, 1, 7},  // r4 = r1 >> 7
		{2, 1, 1, 4},  // r1 ^= r4
		{4, 5, 1, 0},  // r5 = table[r1]
		{0, 2, 2, 5},  // r2 += r5
		{5, 2, 1, 0},  // table[r1] = r2
		{6, 6, 0, 0},  // r6++, every fourth time r2 += r6
	}
	mask := uint64(len(table) - 1)
	var r [8]uint64
	r[1], r[2] = 0x9E3779B97F4A7C15, 1
	for i := 0; i < n; i++ {
		for _, in := range prog {
			switch in.op {
			case 0:
				r[in.a] = r[in.b] + r[in.c]
			case 1:
				r[in.a] = r[in.b] << in.c
			case 2:
				r[in.a] = r[in.b] ^ r[in.c]
			case 3:
				r[in.a] = r[in.b] >> in.c
			case 4:
				r[in.a] = table[r[in.b]&mask]
			case 5:
				table[r[in.b]&mask] = r[in.a]
			case 6:
				r[in.a]++
				if r[in.a]&3 == 0 {
					r[2] += r[in.a]
				}
			}
		}
	}
	return r[1] ^ r[2]
}
