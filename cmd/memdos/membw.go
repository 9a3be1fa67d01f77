package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"memdos/internal/experiments"
)

// cmdMemBW runs the DRAM bandwidth study: detector scoring against the
// streaming hog on the requested topologies, then the closed loop with
// the membw-limit rung enabled.
func cmdMemBW(args []string) error {
	fs := flag.NewFlagSet("membw", flag.ExitOnError)
	app := fs.String("app", "KM", "victim application abbreviation")
	sockets := fs.String("sockets", "1,2", "comma-separated socket counts to run")
	dur := fs.Float64("dur", experiments.Scenario1Duration, "detection run duration (s); attack starts at the midpoint")
	seeds := fs.Int("seeds", 1, "seeds per cell")
	budget := fs.Float64("budget", experiments.MemBWBudget, "membw-limit rung budget (bytes/s)")
	withDNN := fs.Bool("dnn", false, "include the DNN detector (slow: trains first)")
	fs.Parse(args)
	sl, err := seedList(*seeds)
	if err != nil {
		return err
	}

	spec := experiments.DefaultBandwidthSpec(*app)
	spec.Seeds = sl
	spec.Duration = *dur
	spec.Budget = *budget
	spec.WithDNN = *withDNN
	spec.Sockets = spec.Sockets[:0]
	for _, part := range strings.Split(*sockets, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad socket count %q: %v", part, err)
		}
		spec.Sockets = append(spec.Sockets, n)
	}

	res, err := experiments.BandwidthStudy(spec)
	if err != nil {
		return err
	}
	fmt.Printf("DRAM bandwidth-hog study on %s (attack: sequential stream, %.0f GB/s requested):\n\n",
		res.App, experiments.MemBWBytesPerSec/1e9)
	fmt.Printf("detection (recall / specificity / delay):\n")
	fmt.Printf("  %-9s %-8s %-10s %8s %12s %9s\n", "TOPOLOGY", "PLACE", "DETECTOR", "RECALL", "SPECIFICITY", "DELAY")
	for _, c := range res.Cells {
		place := "local"
		if c.Remote {
			place = "remote"
		}
		fmt.Printf("  %-9s %-8s %-10s %8s %12s %9s\n",
			fmt.Sprintf("%d-socket", c.Sockets), place, c.Detector,
			fmtScore(c.Recall), fmtScore(c.Specificity), fmtDelay(c.Delay))
	}
	fmt.Printf("\nclosed loop (SDS -> respond engine, membw-limit rung at %.1f GB/s):\n", spec.Budget/1e9)
	fmt.Printf("  %-9s %-8s %-22s %9s %10s %10s %6s %6s\n",
		"TOPOLOGY", "PLACE", "LADDER", "ATTACKED", "MITIGATED", "RECOVERED", "PEAK", "MEMBW")
	for _, l := range res.Loops {
		place := "local"
		if l.Remote {
			place = "remote"
		}
		for _, v := range []struct {
			name string
			lp   *experiments.ClosedLoopResult
		}{
			{"full (with migration)", l.Full},
			{"contained, membw rung", l.Contained},
			{"contained, throttles", l.ThrottleOnly},
		} {
			fmt.Printf("  %-9s %-8s %-22s %9.2f %10.2f %9.0f%% %6d %6d\n",
				fmt.Sprintf("%d-socket", l.Sockets), place, v.name,
				v.lp.AttackedNormalized, v.lp.MitigatedNormalized,
				100*v.lp.Recovered, v.lp.PeakLevel, v.lp.Stats.BandwidthLimits)
		}
	}
	return nil
}

// fmtScore renders a possibly-NaN [0,1] score.
func fmtScore(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// fmtDelay renders a possibly-NaN detection delay.
func fmtDelay(v float64) string {
	if math.IsNaN(v) {
		return "never"
	}
	return fmt.Sprintf("%.1fs", v)
}
