package sim

import "fmt"

// Seconds is the unit of simulated time throughout the repository.
type Seconds = float64

// Clock is a fixed-step simulated clock. Substrates advance it with Tick;
// the step size is fixed at construction so every component observes the
// same discretization.
type Clock struct {
	step Seconds
	tick uint64
}

// NewClock returns a clock with the given step size in simulated seconds.
// It panics if step is not positive.
func NewClock(step Seconds) *Clock {
	if step <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock step %v", step))
	}
	return &Clock{step: step}
}

// Step returns the step size in simulated seconds.
func (c *Clock) Step() Seconds { return c.step }

// Now returns the current simulated time in seconds.
func (c *Clock) Now() Seconds { return float64(c.tick) * c.step }

// Ticks returns the number of elapsed steps.
func (c *Clock) Ticks() uint64 { return c.tick }

// Tick advances the clock by one step and returns the new time.
func (c *Clock) Tick() Seconds {
	c.tick++
	return c.Now()
}
