package experiments

import (
	"encoding/json"
	"testing"

	"memdos/internal/cluster"
	"memdos/internal/par"
)

// quickClusterSpec is a small grid that still exercises every policy
// combination: 8 hosts, 32 VMs, 2 minutes simulated.
func quickClusterSpec() ClusterStudySpec {
	return ClusterStudySpec{
		Hosts:           8,
		Victims:         4,
		Attackers:       2,
		Utilities:       26,
		App:             "KM",
		Duration:        120,
		RelocationDelay: 45,
		ChurnInterval:   30,
		Seed:            7,
	}
}

func TestClusterStudyGrid(t *testing.T) {
	res, err := ClusterStudy(quickClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 {
		t.Fatalf("got %d cells, want 9", len(res.Cells))
	}
	scheds := []cluster.SchedulerPolicy{cluster.RoundRobin, cluster.BinPack, cluster.Spread}
	places := []cluster.AttackerPolicy{cluster.AttackRandom, cluster.AttackTargeted, cluster.AttackChurn}
	for i, c := range res.Cells {
		if c.Scheduler != scheds[i/3] || c.Placement != places[i%3] {
			t.Errorf("cell %d is %v/%v, want scheduler-major order", i, c.Scheduler, c.Placement)
		}
		if c.CleanSpeed <= 0 || c.CleanSpeed > 1 {
			t.Errorf("%v/%v clean speed %v out of range", c.Scheduler, c.Placement, c.CleanSpeed)
		}
		if c.Placement == cluster.AttackTargeted {
			// A targeted attacker must actually slow the victims down and
			// force the closed loop to migrate them away.
			if c.AttackedSpeed >= c.CleanSpeed {
				t.Errorf("%v/targeted: attacked %v not below clean %v", c.Scheduler, c.AttackedSpeed, c.CleanSpeed)
			}
			if c.Migrations == 0 {
				t.Errorf("%v/targeted: no defensive migrations", c.Scheduler)
			}
			if c.Recovered <= 0 {
				t.Errorf("%v/targeted: recovered %v, want > 0", c.Scheduler, c.Recovered)
			}
		}
	}
}

func TestClusterStudyDeterministic(t *testing.T) {
	spec := quickClusterSpec()
	spec.Duration = 60
	spec.RelocationDelay = 20
	run := func(workers int) []byte {
		prev := par.SetParallelism(workers)
		defer par.SetParallelism(prev)
		res, err := ClusterStudy(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	serial, parallel := run(1), run(4)
	if string(serial) != string(parallel) {
		t.Errorf("study differs across worker counts:\nserial   %s\nparallel %s", serial, parallel)
	}
}

func TestClusterStudyValidation(t *testing.T) {
	bad := quickClusterSpec()
	bad.Hosts = 1
	if _, err := ClusterStudy(bad); err == nil {
		t.Error("1-host cluster accepted")
	}
	bad = quickClusterSpec()
	bad.RelocationDelay = bad.Duration
	if _, err := ClusterStudy(bad); err == nil {
		t.Error("relocation delay >= duration accepted")
	}
}
