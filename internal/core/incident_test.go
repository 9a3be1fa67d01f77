package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"memdos/internal/sim"
)

func decisions(pairs ...interface{}) []Decision {
	var out []Decision
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Decision{Time: pairs[i].(float64), Alarm: pairs[i+1].(bool)})
	}
	return out
}

func TestIncidentsBasic(t *testing.T) {
	ds := decisions(
		1.0, false,
		2.0, true,
		3.0, true,
		4.0, false,
		5.0, false,
		6.0, true,
	)
	incs, err := Incidents(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 2 {
		t.Fatalf("incidents = %v", incs)
	}
	if incs[0].Start != 2 || incs[0].End != 4 || incs[0].Open {
		t.Errorf("first incident = %+v", incs[0])
	}
	if incs[1].Start != 6 || !incs[1].Open {
		t.Errorf("second incident = %+v", incs[1])
	}
	if incs[0].Duration() != 2 {
		t.Errorf("duration = %v", incs[0].Duration())
	}
	if incs[0].String() == "" || incs[1].String() == "" {
		t.Error("empty String()")
	}
}

func TestIncidentsEmptyAndQuiet(t *testing.T) {
	if incs, err := Incidents(nil); err != nil || len(incs) != 0 {
		t.Errorf("nil decisions: %v, %v", incs, err)
	}
	quiet := decisions(1.0, false, 2.0, false)
	if incs, _ := Incidents(quiet); len(incs) != 0 {
		t.Errorf("quiet stream produced incidents %v", incs)
	}
}

func TestIncidentsOutOfOrder(t *testing.T) {
	ds := decisions(2.0, true, 1.0, false)
	if _, err := Incidents(ds); err == nil {
		t.Error("out-of-order decisions accepted")
	}
}

// TestIncidentFold drives the one-decision-at-a-time fold a live session
// uses and checks the batch Incidents (a loop over it) agrees: same
// episodes for in-order input, an error where the fold skips. edges is
// the edge the fold reports for each decision, raised its raise count.
func TestIncidentFold(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ds      []Decision
		gap     float64
		want    []Incident
		skipped int
		edges   []bool
		raised  int
	}{
		{
			name:   "first decision before t=-1 is in order",
			ds:     decisions(-5.0, true, -4.0, true, -3.0, false),
			want:   []Incident{{Start: -5, End: -3}},
			edges:  []bool{true, false, true},
			raised: 1,
		},
		{
			name:    "out-of-order decision is skipped, fold resumes",
			ds:      decisions(2.0, true, 1.0, false, 3.0, false),
			want:    []Incident{{Start: 2, End: 3}},
			skipped: 1,
			edges:   []bool{true, false, true},
			raised:  1,
		},
		{
			name:    "skipped decision cannot open an episode",
			ds:      decisions(2.0, false, 1.0, true, 3.0, false),
			skipped: 1,
			edges:   []bool{false, false, false},
		},
		{
			name:   "flap inside the gap is one incident",
			ds:     decisions(1.0, true, 2.0, false, 3.5, true, 5.0, false),
			gap:    2,
			want:   []Incident{{Start: 1, End: 5}},
			edges:  []bool{true, true, true, true},
			raised: 2,
		},
		{
			name:   "flap beyond the gap stays two",
			ds:     decisions(1.0, true, 2.0, false, 4.5, true, 5.0, false),
			gap:    2,
			want:   []Incident{{Start: 1, End: 2}, {Start: 4.5, End: 5}},
			edges:  []bool{true, true, true, true},
			raised: 2,
		},
		{
			name:   "merged flap still alarming stays open",
			ds:     decisions(1.0, true, 2.0, false, 3.0, true),
			gap:    2,
			want:   []Incident{{Start: 1, End: 3, Open: true}},
			edges:  []bool{true, true, true},
			raised: 2,
		},
	} {
		var f IncidentFold
		skipped := 0
		var edges []bool
		for _, d := range tc.ds {
			ok, edge := f.Observe(d)
			if !ok {
				skipped++
			}
			edges = append(edges, edge)
		}
		if skipped != tc.skipped {
			t.Errorf("%s: skipped %d decisions, want %d", tc.name, skipped, tc.skipped)
		}
		if !reflect.DeepEqual(edges, tc.edges) || f.Raised() != tc.raised {
			t.Errorf("%s: edges %v, %d raised; want %v, %d", tc.name, edges, f.Raised(), tc.edges, tc.raised)
		}
		if got := f.Merged(tc.gap); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: fold = %v, want %v", tc.name, got, tc.want)
		}
		batch, err := Incidents(tc.ds)
		if tc.skipped > 0 {
			if err == nil {
				t.Errorf("%s: Incidents accepted out-of-order decisions", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if got := MergeIncidents(batch, tc.gap); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Incidents = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMergeIncidents(t *testing.T) {
	incs := []Incident{
		{Start: 10, End: 20},
		{Start: 22, End: 30},   // 2s gap: merge at maxGap>=2
		{Start: 100, End: 110}, // far: never merged
	}
	merged := MergeIncidents(incs, 5)
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	if merged[0].Start != 10 || merged[0].End != 30 {
		t.Errorf("merged[0] = %+v", merged[0])
	}
	// With zero gap tolerance nothing merges.
	if got := MergeIncidents(incs, 0); len(got) != 3 {
		t.Errorf("maxGap=0 merged to %v", got)
	}
	if MergeIncidents(nil, 1) != nil {
		t.Error("nil incidents should merge to nil")
	}
}

func TestIncidentsCoverAlarms(t *testing.T) {
	// Property: every alarming decision falls inside some incident, and
	// incidents never overlap.
	check := func(seed uint64) bool {
		r := newTestRNG(seed)
		var ds []Decision
		tm := 0.0
		for i := 0; i < 100; i++ {
			tm += 0.5
			ds = append(ds, Decision{Time: tm, Alarm: r.Bool(0.3)})
		}
		incs, err := Incidents(ds)
		if err != nil {
			return false
		}
		for _, d := range ds {
			if !d.Alarm {
				continue
			}
			inside := false
			for _, in := range incs {
				if d.Time >= in.Start && (d.Time <= in.End || in.Open) {
					inside = true
					break
				}
			}
			if !inside {
				return false
			}
		}
		for i := 1; i < len(incs); i++ {
			if incs[i].Start < incs[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// newTestRNG avoids importing sim at every call site in this file.
func newTestRNG(seed uint64) *sim.RNG { return sim.NewRNG(seed) }

func TestIncidentsAllAlarm(t *testing.T) {
	// A stream that alarms on every decision is one incident, still open,
	// spanning first to last decision.
	ds := decisions(1.0, true, 2.0, true, 3.0, true, 4.0, true)
	incs, err := Incidents(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("all-alarm stream: %v", incs)
	}
	if incs[0].Start != 1 || incs[0].End != 4 || !incs[0].Open {
		t.Errorf("all-alarm incident = %+v", incs[0])
	}
}

func TestIncidentsSingleAlarm(t *testing.T) {
	// One alarming decision with nothing after it: a zero-duration open
	// incident, not a lost alarm.
	incs, err := Incidents(decisions(1.0, false, 2.0, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 || incs[0].Start != 2 || incs[0].End != 2 || !incs[0].Open {
		t.Fatalf("single-alarm incidents = %v", incs)
	}
	if incs[0].Duration() != 0 {
		t.Errorf("duration = %v", incs[0].Duration())
	}
}

func TestMergeIncidentsEdgeCases(t *testing.T) {
	// Empty (non-nil) input behaves like nil.
	if got := MergeIncidents([]Incident{}, 5); got != nil {
		t.Errorf("empty slice merged to %v", got)
	}

	// maxGap=0 still merges back-to-back episodes (gap exactly zero).
	touching := []Incident{{Start: 1, End: 2}, {Start: 2, End: 3}}
	if got := MergeIncidents(touching, 0); len(got) != 1 || got[0].Start != 1 || got[0].End != 3 {
		t.Errorf("touching episodes at maxGap=0: %v", got)
	}

	// A chain of small gaps collapses transitively into one incident.
	chain := []Incident{
		{Start: 0, End: 10},
		{Start: 11, End: 20},
		{Start: 21, End: 30},
		{Start: 31, End: 40},
	}
	if got := MergeIncidents(chain, 1); len(got) != 1 || got[0].Start != 0 || got[0].End != 40 {
		t.Errorf("chain merge: %v", got)
	}

	// An open trailing incident keeps its Open flag through a merge...
	open := []Incident{{Start: 0, End: 5}, {Start: 6, End: 9, Open: true}}
	got := MergeIncidents(open, 2)
	if len(got) != 1 || !got[0].Open || got[0].End != 9 {
		t.Errorf("open trailing merge: %v", got)
	}
	// ...and a closed trailing incident clears it.
	closed := []Incident{{Start: 0, End: 5, Open: true}, {Start: 6, End: 9}}
	if got := MergeIncidents(closed, 2); len(got) != 1 || got[0].Open {
		t.Errorf("closed trailing merge: %v", got)
	}

	// Merging must not mutate the input slice.
	orig := []Incident{{Start: 0, End: 1}, {Start: 2, End: 3}}
	MergeIncidents(orig, 10)
	if orig[0].End != 1 {
		t.Errorf("input mutated: %v", orig)
	}
}

// FuzzIncidentFoldEdges checks the fold's edges against the hand-rolled
// loop every caller used to keep: over the in-order decisions, an edge is
// d.Alarm != the previous in-order decision's Alarm (false before the
// first), the raise count is the unmerged episode count of Incidents over
// those decisions, and Last is the last of them. Each input byte is one
// decision: bit 0 the alarm, the rest a signed step in half seconds, so a
// negative step dates a decision before its predecessor.
func FuzzIncidentFoldEdges(f *testing.F) {
	f.Add([]byte{0, 3, 3, 2, 0xfd, 2, 5})
	f.Add([]byte{1, 0xff, 1, 0, 0x81, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		var fold IncidentFold
		var accepted []Decision
		prev, tm := false, 0.0
		for i, b := range in {
			tm += float64(int8(b)>>1) / 2
			d := Decision{Time: tm, Alarm: b&1 == 1}
			inOrder := len(accepted) == 0 || d.Time >= accepted[len(accepted)-1].Time
			wantEdge := inOrder && d.Alarm != prev
			if inOrder {
				accepted = append(accepted, d)
				prev = d.Alarm
			}
			ok, edge := fold.Observe(d)
			if ok != inOrder || edge != wantEdge {
				t.Fatalf("decision %d %+v: ok %v edge %v, want %v %v", i, d, ok, edge, inOrder, wantEdge)
			}
			if fold.Active() != prev {
				t.Fatalf("decision %d: Active %v, want %v", i, fold.Active(), prev)
			}
		}
		incs, err := Incidents(accepted)
		if err != nil {
			t.Fatal(err)
		}
		if fold.Raised() != len(incs) {
			t.Fatalf("Raised %d, want %d", fold.Raised(), len(incs))
		}
		last, ok := fold.Last()
		if ok != (len(accepted) > 0) || ok && last != accepted[len(accepted)-1] {
			t.Fatalf("Last = %+v, %v; accepted %v", last, ok, accepted)
		}
	})
}
