// Package pcm emulates the Processor Counter Monitor tool the paper runs on
// the hypervisor: it reports each VM's LLC accesses and misses as one
// (AccessNum, MissNum) sample every T_PCM seconds (0.01 s in the paper).
// The simulators step once per T_PCM, so every step yields one sample.
// Every detection scheme in this repository consumes these samples and
// nothing else, mirroring the paper's threat model in which the detector
// sees only hardware counters.
//
// A Counter keeps no sample history: like the paper's hypervisor, it hands
// each sample to whoever steps it and forgets it. A study that needs a
// VM's trace records it from the samples it is handed. The package imports
// no other memdos package, so the daemon's wire codec (binary.go, json.go)
// carries none of the simulator with it.
package pcm

import (
	"fmt"
	"math"
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
// and writes its sample.
type Counter struct {
	tpcm float64
	// count is the number of completed samples: the sample timeline.
	count int
	// DRAM accumulators fed by AddMem before the interval's Observe. The
	// latency average is delivered-line weighted, so latAccum holds the
	// weighted sum and lineAccum the weight.
	bwAccum   float64
	latAccum  float64
	lineAccum float64
}

// NewCounter returns a counter sampling every tpcm seconds.
func NewCounter(tpcm float64) (*Counter, error) {
	if tpcm <= 0 {
		return nil, fmt.Errorf("pcm: non-positive tpcm %v", tpcm)
	}
	return &Counter{tpcm: tpcm}, nil
}

// MustNewCounter is NewCounter but panics on invalid arguments.
func MustNewCounter(tpcm float64) *Counter {
	c, err := NewCounter(tpcm)
	if err != nil {
		panic(err)
	}
	return c
}

// TPCM returns the sampling interval.
func (c *Counter) TPCM() float64 { return c.tpcm }

// AddMem records one sampling interval's DRAM traffic ahead of its
// Observe: bytes delivered, the delivered-line-weighted latency sum in
// seconds, and the line count carrying that weight. Hosts without a memory
// model simply never call it, leaving the bandwidth fields of every sample
// zero. Each argument must be finite and non-negative.
func (c *Counter) AddMem(bytes, latencySum, lines float64) {
	if !validCount(bytes) || !validCount(latencySum) || !validCount(lines) {
		panic(fmt.Sprintf("pcm: DRAM accounting %v/%v/%v not finite and non-negative", bytes, latencySum, lines))
	}
	c.bwAccum += bytes
	c.latAccum += latencySum
	c.lineAccum += lines
}

// Observe records one sampling interval's accesses and misses and writes
// its sample to dst, every field of it: nothing dst held before survives.
// A per-tick caller points dst at the slot the sample lives in, so the
// five-field sample is never copied through a temporary. accesses and
// misses must be finite and non-negative (the codecs' accept test), so
// no NaN or Inf count reaches a sample.
func (c *Counter) Observe(dst *Sample, accesses, misses float64) {
	if !validCount(accesses) || !validCount(misses) {
		panic(fmt.Sprintf("pcm: counts %v/%v not finite and non-negative", accesses, misses))
	}
	// The sample timeline starts at tpcm with interval tpcm, so the
	// completed-sample count gives this sample's end-of-interval
	// timestamp directly.
	dst.Time = c.tpcm + float64(c.count)*c.tpcm
	dst.AccessNum = accesses
	dst.MissNum = misses
	dst.BWBytes = c.bwAccum
	dst.AvgLatency = 0
	if c.lineAccum > 0 {
		dst.AvgLatency = c.latAccum / c.lineAccum
	}
	c.count++
	c.bwAccum, c.latAccum, c.lineAccum = 0, 0, 0
}

// validCount reports whether x is a finite, non-negative counter value:
// the accept test Sample.wellFormed applies to every counter field (a
// comparison with NaN is false, and +Inf exceeds MaxFloat64).
func validCount(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// SkipToSample fast-forwards the counter to n completed samples without
// observing anything: a migrated VM's counter rejoining a destination
// host whose clock is ahead (transit downtime) skips the samples it
// never produced, so its timeline stays aligned with wall time. Any DRAM
// traffic added since the last sample is dropped. Skipping backwards is a
// no-op.
func (c *Counter) SkipToSample(n int) {
	if n <= c.count {
		return
	}
	c.count = n
	c.bwAccum, c.latAccum, c.lineAccum = 0, 0, 0
}
