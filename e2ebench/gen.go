package main

import (
	"fmt"
	"math"

	"memdos/internal/core"
	"memdos/internal/experiments"
	"memdos/internal/pcm"
)

// Input generation. Everything the systems under test see derives from
// -seed through experiments.MeasurementTrace: a 120 s simulated run of one
// Table II application, clean for 60 s and attacked for 60 s. The
// benchmark cuts one replay cycle out of it — cleanSeconds before the
// attack starts and attackSeconds after — and replays that cycle
// endlessly, each session starting at its own phase.

const (
	tpcm          = 0.01 // seconds per PCM sample, the paper's T_PCM
	cleanSeconds  = 20
	attackSeconds = 30
	traceAttackAt = 60 // MeasurementTrace starts the attack here
	profileDur    = 120
)

// family is one (application, attack) pairing with its replay cycle and
// the attack-free profile its SDS detectors are built from.
type family struct {
	app     string
	mode    experiments.AttackMode
	profile string // hub profile name, "sds:<app>"
	cycle   []pcm.Sample
}

// families are the two session populations of the serving workloads.
// KM is non-periodic (SDS/B alone), FN periodic (SDS/B and SDS/P).
var familySpecs = []struct {
	app  string
	mode experiments.AttackMode
}{
	{"KM", experiments.BusLock},
	{"FN", experiments.Cleansing},
}

// inputs is everything generated from the seed, before any system is
// built. It is the benchmark's own cost and outside setup_s.
type inputs struct {
	seed     uint64
	families []family
	notes    []string
	// perturbSession/perturbSample name one sample whose timestamp the
	// generator shifts by a quarter period before sending (the reference
	// replay never does), so tests can show the oracle is live.
	// perturbSession < 0 (the default) perturbs nothing.
	perturbSession, perturbSample int
}

func generateInputs(seed uint64) (*inputs, error) {
	in := &inputs{seed: seed, perturbSession: -1}
	params := core.DefaultParams()
	for _, fs := range familySpecs {
		prof, err := experiments.ProfileApp(fs.app, profileDur, params)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", fs.app, err)
		}
		f := family{app: fs.app, mode: fs.mode, profile: "sds:" + fs.app}
		// On some seeds the clean part of a trace sits outside the tight
		// K-sigma envelope of the attack-free profile, the alarm never
		// clears, and a session yields one event per run instead of two
		// per cycle — too few to time. Such a trace is rejected and the
		// next derived seed tried; the choice depends on the seed alone.
		for attempt := uint64(0); ; attempt++ {
			if attempt == maxTraceAttempts {
				return nil, fmt.Errorf("%s x %s: no trace with recurring alarm transitions in %d seeds from %d",
					fs.app, fs.mode, maxTraceAttempts, seed)
			}
			traceSeed := seed + attempt*traceSeedStride
			if f.cycle, err = makeCycle(fs.app, fs.mode, traceSeed); err != nil {
				return nil, err
			}
			det, err := core.NewSDS(prof, params)
			if err != nil {
				return nil, err
			}
			probe := &inputs{families: []family{f}, perturbSession: -1}
			if ev := probe.referenceEvents(det, sessionSpec{}, 3*len(f.cycle)); len(ev) >= 4 {
				if attempt > 0 {
					in.notes = append(in.notes, fmt.Sprintf("%s x %s: trace seed %d (seed %d yields a stuck alarm)",
						fs.app, fs.mode, traceSeed, seed))
				}
				break
			}
		}
		in.families = append(in.families, f)
	}
	return in, nil
}

const (
	maxTraceAttempts = 8
	traceSeedStride  = 1_000_003
)

// makeCycle cuts the replay cycle out of one measurement trace.
func makeCycle(app string, mode experiments.AttackMode, seed uint64) ([]pcm.Sample, error) {
	tr, err := experiments.MeasurementTrace(app, mode, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s trace: %w", app, err)
	}
	lo := int(math.Round((traceAttackAt - cleanSeconds) / tpcm))
	hi := int(math.Round((traceAttackAt + attackSeconds) / tpcm))
	if hi > len(tr.Access.Values) || hi > len(tr.Miss.Values) {
		return nil, fmt.Errorf("%s trace has %d samples, need %d", app, len(tr.Access.Values), hi)
	}
	cyc := make([]pcm.Sample, 0, hi-lo)
	for i := lo; i < hi; i++ {
		cyc = append(cyc, pcm.Sample{AccessNum: tr.Access.Values[i], MissNum: tr.Miss.Values[i]})
	}
	return cyc, nil
}

// sessionSpec is one detection session of a serving workload: which
// family's cycle it replays and where in the cycle it starts.
type sessionSpec struct {
	idx    int
	id     string
	family int
	phase  int // starting offset into the family's cycle
}

// makeSessions lays out n sessions alternating between the families,
// spreading each family's sessions over `phases` evenly spaced phases.
func makeSessions(in *inputs, n, phases int) []sessionSpec {
	out := make([]sessionSpec, n)
	for i := range out {
		f := i % len(in.families)
		k := (i / len(in.families)) % phases
		out[i] = sessionSpec{
			idx:    i,
			id:     fmt.Sprintf("vm-%04d", i),
			family: f,
			phase:  k * len(in.families[f].cycle) / phases,
		}
	}
	return out
}

// sampleTime is the timestamp of a session's n-th sample (n from 0).
func sampleTime(n int) float64 { return tpcm * float64(n+1) }

// sampleIndex inverts sampleTime, reporting false when t is not exactly
// a generated timestamp.
func sampleIndex(t float64) (int, bool) {
	n := int(math.Round(t/tpcm)) - 1
	if n < 0 || math.Float64bits(sampleTime(n)) != math.Float64bits(t) {
		return 0, false
	}
	return n, true
}

// fill writes the session's samples n0..n0+len(dst)-1 into dst, as the
// generators send them.
func (in *inputs) fill(dst []pcm.Sample, s sessionSpec, n0 int) {
	in.fillClean(dst, s, n0)
	if p := in.perturbSample - n0; s.idx == in.perturbSession && p >= 0 && p < len(dst) {
		dst[p].Time += tpcm / 4
	}
}

// fillClean is fill without the test perturbation: what the reference
// replays.
func (in *inputs) fillClean(dst []pcm.Sample, s sessionSpec, n0 int) {
	cyc := in.families[s.family].cycle
	j := (s.phase + n0) % len(cyc)
	for i := range dst {
		dst[i] = cyc[j]
		dst[i].Time = sampleTime(n0 + i)
		if j++; j == len(cyc) {
			j = 0
		}
	}
}

// transition is one alarm raise or clear of one session.
type transition struct {
	Time   float64
	Raised bool
}

// referenceEvents replays the first n samples of a session through a
// fresh detector and returns its alarm transitions, folding decisions
// the way the hub does.
func (in *inputs) referenceEvents(det core.Detector, s sessionSpec, n int) []transition {
	var (
		out   []transition
		alarm bool
		buf   [256]pcm.Sample
	)
	for n0 := 0; n0 < n; n0 += len(buf) {
		chunk := buf[:min(len(buf), n-n0)]
		in.fillClean(chunk, s, n0)
		for _, smp := range chunk {
			for _, d := range det.Push(smp) {
				if d.Alarm != alarm {
					alarm = d.Alarm
					out = append(out, transition{Time: d.Time, Raised: d.Alarm})
				}
			}
		}
	}
	return out
}
