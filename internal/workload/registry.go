package workload

import "fmt"

// The ten applications of the paper's measurement study (Table II), with
// regime chains calibrated so that (a) the no-attack KStest false-alarm
// rates of Section III-B emerge (TS/PCA ~60%, FN ~55%, Aggre/Join/Scan
// ~40%, SVM ~35%, BA/PR ~30%, KM ~20%) and (b) the qualitative trace
// shapes of Figs. 2-6 are reproduced. Access rates are in accesses per
// work-second at the PCM sampling granularity used throughout (so an app
// with rate 2e6 shows ~2e4 accesses per 10 ms sample).
var specs = []Spec{
	{
		Name: "Bayesian Classification", Abbrev: "BA",
		BaseAccessRate: 1.8e6, BaseMissRatio: 0.08, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 0.968, MissFactor: 1.0, DwellMean: 4},
			{AccessFactor: 1.032, MissFactor: 1.0, DwellMean: 4},
		},
		WorkSeconds: 180,
	},
	{
		Name: "Support Vector Machine", Abbrev: "SVM",
		BaseAccessRate: 2.2e6, BaseMissRatio: 0.06, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 0.967, MissFactor: 1.0, DwellMean: 4},
			{AccessFactor: 1.033, MissFactor: 1.0, DwellMean: 4},
		},
		WorkSeconds: 200,
	},
	{
		Name: "K-means Clustering", Abbrev: "KM",
		BaseAccessRate: 2.0e6, BaseMissRatio: 0.05, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 7},
			{AccessFactor: 0.9653, MissFactor: 1.0, DwellMean: 5},
		},
		WorkSeconds: 150,
	},
	{
		Name: "Principal Components Analysis", Abbrev: "PCA",
		BaseAccessRate: 1.6e6, BaseMissRatio: 0.07, NoiseFrac: 0.10,
		Periodic: true, PeriodSec: 6.9, Amplitude: 0.105,
		WorkSeconds: 160,
	},
	{
		Name: "TeraSort", Abbrev: "TS",
		BaseAccessRate: 2.6e6, BaseMissRatio: 0.12, NoiseFrac: 0.12,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 6},    // map
			{AccessFactor: 0.9465, MissFactor: 1.0, DwellMean: 5}, // shuffle
			{AccessFactor: 1.0535, MissFactor: 1.0, DwellMean: 5}, // reduce
		},
		WorkSeconds: 240,
	},
	{
		Name: "Hive Aggregation", Abbrev: "Aggre",
		BaseAccessRate: 1.9e6, BaseMissRatio: 0.09, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 0.965, MissFactor: 1.0, DwellMean: 4},
			{AccessFactor: 1.035, MissFactor: 1.0, DwellMean: 4},
		},
		WorkSeconds: 120,
	},
	{
		Name: "Hive Join", Abbrev: "Join",
		BaseAccessRate: 2.1e6, BaseMissRatio: 0.10, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 0.965, MissFactor: 1.0, DwellMean: 4},
			{AccessFactor: 1.035, MissFactor: 1.0, DwellMean: 4},
		},
		WorkSeconds: 140,
	},
	{
		Name: "Hive Scan", Abbrev: "Scan",
		BaseAccessRate: 2.4e6, BaseMissRatio: 0.14, NoiseFrac: 0.1,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 0.965, MissFactor: 1.0, DwellMean: 4},
			{AccessFactor: 1.035, MissFactor: 1.0, DwellMean: 4},
		},
		WorkSeconds: 100,
	},
	{
		Name: "PageRank", Abbrev: "PR",
		BaseAccessRate: 2.0e6, BaseMissRatio: 0.11, NoiseFrac: 0.09,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 6},
			{AccessFactor: 0.9739, MissFactor: 1.0, DwellMean: 5},
			{AccessFactor: 1.0261, MissFactor: 1.0, DwellMean: 5},
		},
		WorkSeconds: 170,
	},
	{
		Name: "FaceNet", Abbrev: "FN",
		BaseAccessRate: 1.7e6, BaseMissRatio: 0.06, NoiseFrac: 0.12,
		Periodic: true, PeriodSec: 8.5, Amplitude: 0.115,
		WorkSeconds: 300,
	},
}

// Utility returns the spec of the light background workload run by the
// seven benign co-located VMs in the paper's testbed (Linux utilities such
// as sysstat and dstat): low, steady memory demand.
func Utility() Spec {
	return Spec{
		Name: "Linux utilities", Abbrev: "UTIL",
		BaseAccessRate: 2e5, BaseMissRatio: 0.03, NoiseFrac: 0.15,
	}
}

// Dynamic returns a synthetic "dynamic application" whose demand level
// shifts drastically between long-lived phases — the kind of workload the
// paper's future work (Section VIII) targets: its counter levels change so
// much that SDS/B's single profiled range cannot cover them without either
// false positives (phases outside the range) or false negatives (a range
// wide enough to swallow the attacks). It exercises the SDS/U extension.
func Dynamic() Spec {
	return Spec{
		Name: "Dynamic service", Abbrev: "DYN",
		BaseAccessRate: 2.0e6, BaseMissRatio: 0.08, NoiseFrac: 0.10,
		Phases: []Phase{
			{AccessFactor: 1.0, MissFactor: 1.0, DwellMean: 30},
			{AccessFactor: 0.5, MissFactor: 1.0, DwellMean: 25},
			{AccessFactor: 1.7, MissFactor: 1.0, DwellMean: 25},
		},
	}
}

// All returns the specs of all ten applications in a stable order.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Abbrevs returns the Table II abbreviations in registry order.
func Abbrevs() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Abbrev
	}
	return out
}

// ByAbbrev returns the spec with the given Table II abbreviation.
func ByAbbrev(abbrev string) (Spec, error) {
	for _, s := range specs {
		if s.Abbrev == abbrev {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown application %q (known: %v)", abbrev, Abbrevs())
}

// MustByAbbrev is ByAbbrev but panics on unknown abbreviations.
func MustByAbbrev(abbrev string) Spec {
	s, err := ByAbbrev(abbrev)
	if err != nil {
		panic(err)
	}
	return s
}
