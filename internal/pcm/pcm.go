// Package pcm emulates the Processor Counter Monitor tool the paper runs on
// the hypervisor: it reports each VM's LLC accesses and misses as one
// (AccessNum, MissNum) sample every T_PCM seconds (0.01 s in the paper).
// The simulators step once per T_PCM, so every step yields one sample.
// Every detection scheme in this repository consumes these samples and
// nothing else, mirroring the paper's threat model in which the detector
// sees only hardware counters.
package pcm

import (
	"fmt"

	"memdos/internal/trace"
)

// Sample is one PCM observation.
type Sample struct {
	// Time is the simulated timestamp at the *end* of the sampling
	// interval.
	Time float64
	// AccessNum is the number of LLC accesses during the interval.
	AccessNum float64
	// MissNum is the number of LLC misses during the interval.
	MissNum float64
	// BWBytes is the DRAM traffic delivered to the VM during the interval
	// in bytes (PCM's memory-bandwidth counters). Zero when the host runs
	// without a memory-controller model.
	BWBytes float64
	// AvgLatency is the average per-line DRAM latency over the interval in
	// seconds, or zero when no lines were delivered (or no memory model).
	AvgLatency float64
}

// Counter turns one VM's per-tick access/miss counts into PCM samples: the
// caller steps once per T_PCM, so each Observe is one sampling interval
// and returns its sample.
type Counter struct {
	tpcm float64
	// count is the number of completed samples. It is tracked separately
	// from the series length so a counter can run with history retention
	// off (see SetRetainHistory) without losing its sample timeline.
	count        int
	retain       bool
	accessSeries *trace.Series
	missSeries   *trace.Series
	// DRAM accumulators fed by AddMem before the interval's Observe. The
	// latency average is delivered-line weighted, so latAccum holds the
	// weighted sum and lineAccum the weight.
	bwAccum   float64
	latAccum  float64
	lineAccum float64
}

// NewCounter returns a counter sampling every tpcm seconds.
func NewCounter(name string, tpcm float64) (*Counter, error) {
	if tpcm <= 0 {
		return nil, fmt.Errorf("pcm: non-positive tpcm %v", tpcm)
	}
	return &Counter{
		tpcm:         tpcm,
		retain:       true,
		accessSeries: trace.NewSeries(name+".access", tpcm, tpcm),
		missSeries:   trace.NewSeries(name+".miss", tpcm, tpcm),
	}, nil
}

// MustNewCounter is NewCounter but panics on invalid arguments.
func MustNewCounter(name string, tpcm float64) *Counter {
	c, err := NewCounter(name, tpcm)
	if err != nil {
		panic(err)
	}
	return c
}

// TPCM returns the sampling interval.
func (c *Counter) TPCM() float64 { return c.tpcm }

// SetRetainHistory toggles series retention. With retention off (the
// datacenter simulator's setting, where thousands of VMs would otherwise
// accumulate unbounded history) completed samples are still produced
// with correct timestamps, but AccessSeries/MissSeries stop growing.
// Turning retention back on resumes recording from the current time; the
// series' earlier gap is not backfilled, so mixed-retention series
// should not be used for figure traces.
func (c *Counter) SetRetainHistory(on bool) { c.retain = on }

// AddMem records one sampling interval's DRAM traffic ahead of its
// Observe: bytes delivered, the delivered-line-weighted latency sum in
// seconds, and the line count carrying that weight. Hosts without a memory
// model simply never call it, leaving the bandwidth fields of every sample
// zero.
func (c *Counter) AddMem(bytes, latencySum, lines float64) {
	if bytes < 0 || latencySum < 0 || lines < 0 {
		panic(fmt.Sprintf("pcm: negative DRAM accounting %v/%v/%v", bytes, latencySum, lines))
	}
	c.bwAccum += bytes
	c.latAccum += latencySum
	c.lineAccum += lines
}

// Observe records one sampling interval's accesses and misses and returns
// its sample.
func (c *Counter) Observe(accesses, misses float64) Sample {
	if accesses < 0 || misses < 0 {
		panic(fmt.Sprintf("pcm: negative counts %v/%v", accesses, misses))
	}
	// The sample timeline starts at tpcm with interval tpcm, so the
	// completed-sample count gives this sample's end-of-interval
	// timestamp directly (equal to accessSeries.End() while retention is
	// on, but independent of it so retention-off counters keep time).
	s := Sample{
		Time:      c.tpcm + float64(c.count)*c.tpcm,
		AccessNum: accesses,
		MissNum:   misses,
		BWBytes:   c.bwAccum,
	}
	if c.lineAccum > 0 {
		s.AvgLatency = c.latAccum / c.lineAccum
	}
	if c.retain {
		c.accessSeries.Append(s.AccessNum)
		c.missSeries.Append(s.MissNum)
	}
	c.count++
	c.bwAccum, c.latAccum, c.lineAccum = 0, 0, 0
	return s
}

// SkipToSample fast-forwards the counter to n completed samples without
// observing anything: a migrated VM's counter rejoining a destination
// host whose clock is ahead (transit downtime) skips the samples it
// never produced, so its timeline stays aligned with wall time. Retained
// series record zeros for the skipped interval. Any DRAM traffic added
// since the last sample is dropped. Skipping backwards is a no-op.
func (c *Counter) SkipToSample(n int) {
	if n <= c.count {
		return
	}
	if c.retain {
		for i := c.count; i < n; i++ {
			c.accessSeries.Append(0)
			c.missSeries.Append(0)
		}
	}
	c.count = n
	c.bwAccum, c.latAccum, c.lineAccum = 0, 0, 0
}

// AccessSeries returns the full AccessNum series recorded so far. The
// returned series is live; callers must not mutate it.
func (c *Counter) AccessSeries() *trace.Series { return c.accessSeries }

// MissSeries returns the full MissNum series recorded so far. The returned
// series is live; callers must not mutate it.
func (c *Counter) MissSeries() *trace.Series { return c.missSeries }

// Samples returns the number of completed samples (including any not
// retained in the series).
func (c *Counter) Samples() int { return c.count }
