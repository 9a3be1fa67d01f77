package analysis_test

import (
	"encoding/json"
	"testing"

	"memdos/internal/analysis"
)

// TestSARIFSchema pins the shape GitHub code scanning ingests: one run,
// a driver with one rule per checker plus the staleignore pseudo-rule,
// error-level results for findings, warning-level for stale
// suppressions, and note-level results carrying an inSource suppression
// for justified ignores.
func TestSARIFSchema(t *testing.T) {
	find := analysis.Diagnostic{Check: "floateq", File: "a.go", Line: 3, Col: 9, Message: "floating-point == comparison"}
	sup := analysis.Diagnostic{Check: "golife", File: "b.go", Line: 7, Col: 2, Message: "goroutine loops forever"}
	stale := analysis.Diagnostic{Check: analysis.StaleCheck, File: "c.go", Line: 1, Col: 5, Message: "suppression matches no finding"}

	log := analysis.NewSARIF(analysis.Checkers(), analysis.Result{
		Findings:   []analysis.Diagnostic{find},
		Suppressed: []analysis.Diagnostic{sup},
		Stale:      []analysis.Diagnostic{stale},
	})

	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "memdos-vet" {
		t.Errorf("driver name = %q, want memdos-vet", run.Tool.Driver.Name)
	}
	if want := len(analysis.Checkers()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d (every checker plus staleignore)", len(run.Tool.Driver.Rules), want)
	}

	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(run.Results))
	}
	byRule := make(map[string]analysis.SARIFResult)
	for _, r := range run.Results {
		byRule[r.RuleID] = r
	}
	if r := byRule["floateq"]; r.Level != "error" || len(r.Suppressions) != 0 {
		t.Errorf("finding result = %+v, want level error without suppressions", r)
	}
	if r := byRule[analysis.StaleCheck]; r.Level != "warning" {
		t.Errorf("stale result = %+v, want level warning", r)
	}
	r, ok := byRule["golife"]
	if !ok || r.Level != "note" || len(r.Suppressions) != 1 || r.Suppressions[0].Kind != "inSource" {
		t.Errorf("suppressed result = %+v, want level note with one inSource suppression", r)
	}
	if loc := r.Locations[0].PhysicalLocation; loc.ArtifactLocation.URI != "b.go" || loc.Region.StartLine != 7 {
		t.Errorf("suppressed location = %+v, want b.go:7", loc)
	}

	// The document must be valid JSON with the $schema key GitHub checks.
	raw, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "$schema", "runs"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("SARIF JSON missing %q key", key)
		}
	}
}
