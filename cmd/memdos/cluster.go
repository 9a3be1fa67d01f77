package main

import (
	"flag"
	"fmt"

	"memdos/internal/experiments"
)

// cmdCluster runs the datacenter placement study: a multi-host cluster
// where attack VMs pursue co-residence under three placement strategies,
// the scheduler places and evacuates VMs under three policies, and the
// closed loop (SDS detection -> respond ladder -> real VM migration)
// drains attacked victims to clean hosts.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	hosts := fs.Int("hosts", 128, "number of simulated hosts")
	victims := fs.Int("victims", 64, "number of protected victim VMs")
	attackers := fs.Int("attackers", 32, "number of attack VMs")
	vms := fs.Int("vms", 1024, "total VM population (utilities fill the remainder)")
	app := fs.String("app", "KM", "victim application (Table II abbreviation)")
	dur := fs.Float64("dur", 240, "simulated duration (s)")
	delay := fs.Float64("delay", 120, "targeted attacker re-co-location delay (s)")
	churn := fs.Float64("churn", 60, "churn attacker relocation interval (s)")
	seed := fs.Uint64("seed", 7, "seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	spec := experiments.DefaultClusterStudySpec()
	spec.Hosts = *hosts
	spec.Victims = *victims
	spec.Attackers = *attackers
	spec.Utilities = *vms - *victims - *attackers
	if spec.Utilities < 0 {
		return fmt.Errorf("-vms %d smaller than victims+attackers (%d)", *vms, *victims+*attackers)
	}
	spec.App = *app
	spec.Duration = *dur
	spec.RelocationDelay = *delay
	spec.ChurnInterval = *churn
	spec.Seed = *seed

	fmt.Printf("cluster study: %d hosts, %d VMs (%d victims / %d attackers / %d utilities), %s victims, %.0fs\n\n",
		spec.Hosts, spec.Victims+spec.Attackers+spec.Utilities, spec.Victims, spec.Attackers, spec.Utilities,
		spec.App, spec.Duration)

	res, err := experiments.ClusterStudy(spec)
	if err != nil {
		return err
	}

	fmt.Println("| scheduler | attacker placement | clean | attacked | mitigated | recovered | migrations | attacker moves | co-location |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	best := -1.0
	for _, c := range res.Cells {
		fmt.Printf("| %s | %s | %.3f | %.3f | %.3f | %.0f%% | %d | %d | %.0f%% |\n",
			c.Scheduler, c.Placement, c.CleanSpeed, c.AttackedSpeed, c.MitigatedSpeed,
			100*c.Recovered, c.Migrations, c.AttackerMoves, 100*c.Colocation)
		if c.Recovered > best {
			best = c.Recovered
		}
	}
	fmt.Printf("\nbest closed-loop recovery of attack-induced slowdown: %.0f%%\n", 100*best)
	fmt.Println("victim speeds are means over all victims (1.0 = unimpeded); the closed loop detects on the")
	fmt.Println("attacked host and live-migrates the victim to a clean host chosen by the scheduler policy.")
	return nil
}
