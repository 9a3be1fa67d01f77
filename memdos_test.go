// Integration tests of the public façade: the API a downstream user sees,
// exercised end to end (profile -> attack -> detect -> score).
package memdos_test

import (
	"math"
	"testing"

	"memdos"
)

func TestPublicQuickstartFlow(t *testing.T) {
	params := memdos.DefaultParams()
	profile, err := memdos.ProfileApplication("KM", memdos.ProfileDuration, params)
	if err != nil {
		t.Fatal(err)
	}

	cfg := memdos.DefaultServerConfig()
	cfg.Seed = 42
	srv, err := memdos.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appSpec, err := memdos.WorkloadByAbbrev("KM")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := srv.AddApp("victim", appSpec.Service())
	if err != nil {
		t.Fatal(err)
	}
	atk, err := memdos.NewBusLockAttack(memdos.AttackWindow{Start: 120, End: 300}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddAttacker("attacker", atk); err != nil {
		t.Fatal(err)
	}

	det, err := memdos.NewSDS(profile, params)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []memdos.Decision
	srv.RunUntil(300, func(step memdos.ServerStep) {
		decisions = append(decisions, det.Push(step.Samples[victim.ID()])...)
	})

	truth := []memdos.Interval{{Start: 120, End: 300}}
	conf := memdos.Evaluate(decisions, truth, 30)
	if conf.Recall() < 0.95 || conf.Specificity() < 0.9 {
		t.Errorf("quickstart accuracy: %v", conf)
	}
	delays := memdos.DetectionDelay(decisions, truth)
	if math.IsNaN(delays[0]) || delays[0] > 30 {
		t.Errorf("quickstart delay = %v", delays[0])
	}
}

func TestPublicExperimentHarness(t *testing.T) {
	params := memdos.DefaultParams()
	spec := memdos.DefaultRunSpec("TS", memdos.LLCCleansing, 3)
	res, err := memdos.RunExperiment(spec, params, memdos.SDSDetectorFactory)
	if err != nil {
		t.Fatal(err)
	}
	a := memdos.ScoreRun(res, 30)
	if a.Recall < 0.9 || a.Specificity < 0.9 {
		t.Errorf("harness accuracy: %+v", a)
	}
}

func TestPublicWorkloadRegistry(t *testing.T) {
	if _, err := memdos.WorkloadByAbbrev("NOPE"); err == nil {
		t.Error("unknown abbrev accepted")
	}
}

func TestPublicSDSU(t *testing.T) {
	det, err := memdos.NewSDSU(func() float64 { return 1 }, memdos.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if det.Name() != "SDS/U" {
		t.Error("façade SDSU broken")
	}
}
