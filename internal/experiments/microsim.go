package experiments

import (
	"fmt"

	"memdos/internal/attack"
	"memdos/internal/cache"
	"memdos/internal/period"
	"memdos/internal/sim"
)

// Thin wrappers keeping sensitivity.go readable.

func periodDFTOnly(ma []float64) (float64, bool) {
	e := period.EstimateDFTOnly(ma)
	return e.Period, e.Periodic
}

func periodACFOnly(ma []float64) (float64, bool) {
	e := period.EstimateACFOnly(ma)
	return e.Period, e.Periodic
}

func periodDFTACF(ma []float64) (float64, bool) {
	e := period.NewEstimator(period.DefaultEstimatorConfig()).Estimate(ma)
	return e.Period, e.Periodic
}

// microVictim is the microsimulation victim: a working set resident in the
// scaled LLC, accessed with high locality plus a small streaming component
// that misses by construction (setting the intrinsic miss ratio).
type microVictim struct {
	c       *cache.Cache
	owner   cache.Owner
	working []uint64
	rng     *sim.RNG
	stream  uint64
}

func newMicroVictim(c *cache.Cache, owner cache.Owner, setFrac float64, linesPerSet int, rng *sim.RNG) *microVictim {
	g := c.Geometry()
	v := &microVictim{c: c, owner: owner, rng: rng, stream: 1 << 40}
	nSets := int(setFrac * float64(g.Sets))
	for s := 0; s < nSets; s++ {
		for w := 0; w < linesPerSet; w++ {
			v.working = append(v.working, c.AddrForSet(s, uint64(w)))
		}
	}
	return v
}

// step issues accesses accesses: a fraction streamFrac touch fresh
// streaming lines (cold misses), the rest re-touch the working set.
func (v *microVictim) step(accesses int, streamFrac float64) {
	for i := 0; i < accesses; i++ {
		if v.rng.Float64() < streamFrac {
			v.stream += uint64(v.c.Geometry().LineSize)
			v.c.Access(v.owner, v.stream)
			continue
		}
		v.c.Access(v.owner, v.working[v.rng.Intn(len(v.working))])
	}
}

// missRatioOver runs the victim for steps steps and returns its measured
// miss ratio, optionally with the cleanser running.
func missRatioOver(c *cache.Cache, v *microVictim, cl *attack.Cleanser, steps, accessesPerStep, cleanseBudget int) float64 {
	c.ResetStats()
	for i := 0; i < steps; i++ {
		v.step(accessesPerStep, 0.05)
		if cl != nil {
			cl.Cleanse(cleanseBudget)
		}
	}
	return c.Stats(v.owner).MissRatio()
}

// microsimCleansingFactor runs the full cleansing attack — probe phase then
// cleanse phase — against a victim on the set-associative cache model, and
// returns the victim's miss-ratio inflation factor.
func microsimCleansingFactor() (float64, error) {
	c, err := cache.New(cache.GeometryScaled)
	if err != nil {
		return 0, err
	}
	const victimOwner, attackerOwner = 1, 2
	rng := sim.NewRNG(99)
	victim := newMicroVictim(c, victimOwner, 0.5, 8, rng)

	// Warm the victim's working set.
	for i := 0; i < 50; i++ {
		victim.step(2000, 0)
	}
	baseline := missRatioOver(c, victim, nil, 100, 2000, 0)
	if baseline <= 0 {
		return 0, fmt.Errorf("experiments: microsim baseline miss ratio is zero")
	}

	// Probe: the attacker fills each set, lets the victim run, and
	// rechecks, exactly the paper's reconnaissance procedure.
	prober := attack.NewProber(c, attackerOwner)
	contested := prober.FindContested(func() {
		for i := 0; i < 20; i++ {
			victim.step(2000, 0.05)
		}
	}, 2)
	if len(contested) == 0 {
		return 0, fmt.Errorf("experiments: probing found no contested sets")
	}
	cl, err := attack.NewCleanser(c, attackerOwner, contested)
	if err != nil {
		return 0, err
	}
	// Re-warm (probing polluted the cache), then measure under attack.
	for i := 0; i < 50; i++ {
		victim.step(2000, 0)
	}
	during := missRatioOver(c, victim, cl, 100, 2000, 8000)
	return during / baseline, nil
}
