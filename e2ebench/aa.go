package main

import (
	"fmt"
	"io"
)

// -aa N: the same code measured against itself. The chosen workloads run
// N times each, run i on seed+i, alternating between two sets A and B.
// Each set's median and quartiles are printed per end-to-end metric, and
// the command fails when the sets disagree by more than the metric's
// bound in BENCHMARK.json, or when any run failed an operation. This is
// the tool for re-deriving a bound: a bound the benchmark cannot hold
// against itself is too tight for the box.

type aaVerdict struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	spreadA, spreadB float64    // (q3-q1)/median
	diff             float64    // how much worse the worse set's median is, as a share of the other's
	bound            float64
}

func (v aaVerdict) agree() bool { return v.diff <= v.bound }

func runAA(out io.Writer, decl *declaration, chosen []workloadDef, seed uint64, seconds, n int) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	var (
		verdicts []aaVerdict
		invalid  []string
		failed   []string
	)
	for _, w := range chosen {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			runSeed := seed + uint64(i)
			res, err := runUntraced(w, runSeed, sizesFor(seconds))
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			label := fmt.Sprintf("%s run %d (set %c, seed %d)", w.name, i, 'A'+i%2, runSeed)
			if !res.valid {
				invalid = append(invalid, label)
			}
			if res.failed != 0 {
				failed = append(failed, fmt.Sprintf("%s: %d of %d failed", label, res.failed, res.attempted))
			}
			fmt.Fprintf(out, "%s:", label)
			for _, d := range decl.EndToEnd {
				sets[i%2][d.Name] = append(sets[i%2][d.Name], res.e2e[d.Name])
				fmt.Fprintf(out, " %s=%.6g", d.Name, res.e2e[d.Name])
			}
			fmt.Fprintln(out)
		}
		for _, d := range decl.EndToEnd {
			v := aaVerdict{workload: w.name, metric: d.Name, bound: d.Bound}
			v.a[0], v.a[1], v.a[2] = quartiles(sets[0][d.Name])
			v.b[0], v.b[1], v.b[2] = quartiles(sets[1][d.Name])
			v.spreadA = (v.a[2] - v.a[0]) / v.a[1]
			v.spreadB = (v.b[2] - v.b[0]) / v.b[1]
			lo, hi := min(v.a[1], v.b[1]), max(v.a[1], v.b[1])
			if d.Better == "higher" {
				v.diff = (hi - lo) / hi
			} else {
				v.diff = (hi - lo) / lo
			}
			verdicts = append(verdicts, v)
		}
	}

	fmt.Fprintf(out, "\n%-15s %-16s %38s %38s %8s %8s %7s %6s\n", "workload", "metric",
		"A q1/median/q3", "B q1/median/q3", "spreadA", "spreadB", "diff", "bound")
	disagree := 0
	for _, v := range verdicts {
		mark := "ok"
		if !v.agree() {
			mark = "DISAGREE"
			disagree++
		}
		fmt.Fprintf(out, "%-15s %-16s %12.5g/%12.5g/%12.5g %12.5g/%12.5g/%12.5g %8.3f %8.3f %7.3f %6.2f %s\n",
			v.workload, v.metric, v.a[0], v.a[1], v.a[2], v.b[0], v.b[1], v.b[2], v.spreadA, v.spreadB, v.diff, v.bound, mark)
	}
	for _, l := range invalid {
		fmt.Fprintf(out, "valid: false — %s\n", l)
	}
	for _, l := range failed {
		fmt.Fprintf(out, "failed operations — %s\n", l)
	}
	if disagree > 0 || len(failed) > 0 {
		return fmt.Errorf("A/A: %d metric(s) disagree beyond their bound, %d run(s) with failed operations", disagree, len(failed))
	}
	fmt.Fprintln(out, "A/A: the two sets agree within every bound")
	return nil
}
