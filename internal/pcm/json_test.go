package pcm

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSampleJSONRoundTrip(t *testing.T) {
	in := Sample{Time: 1.25, AccessNum: 120.5, MissNum: 8}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"t":`, `"access":`, `"miss":`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("wire form %s missing %s", b, key)
		}
	}
	var out Sample
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v -> %+v", in, out)
	}

	// Slices of samples round-trip too (the ingest wire format).
	batch := []Sample{{Time: 1, AccessNum: 2, MissNum: 3}, {Time: 2, AccessNum: 4, MissNum: 5}}
	bb, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var back []Sample
	if err := json.Unmarshal(bb, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, back) {
		t.Errorf("batch round trip: %v -> %v", batch, back)
	}
}

func TestSampleJSONRejects(t *testing.T) {
	cases := []string{
		`{"t":1,"access":2}`,                    // missing miss
		`{"access":2,"miss":3}`,                 // missing t
		`{"t":1,"access":2,"miss":3,"extra":4}`, // unknown field
		`{"t":1,"access":-2,"miss":3}`,          // negative counter
		`{"t":1,"access":1e999,"miss":3}`,       // +Inf after parse
		`{"t":"now","access":2,"miss":3}`,       // wrong type
		`[1,2,3]`,                               // not an object
	}
	for _, c := range cases {
		var s Sample
		if err := json.Unmarshal([]byte(c), &s); err == nil {
			t.Errorf("accepted %s as %+v", c, s)
		}
	}
}

func TestSampleMarshalRejectsNonFinite(t *testing.T) {
	for _, s := range []Sample{
		{Time: math.NaN(), AccessNum: 1, MissNum: 1},
		{Time: 1, AccessNum: math.Inf(1), MissNum: 1},
		{Time: 1, AccessNum: 1, MissNum: math.Inf(-1)},
	} {
		if _, err := json.Marshal(s); err == nil {
			t.Errorf("marshalled non-finite sample %+v", s)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Sample{Time: 0, AccessNum: 0, MissNum: 0}).Validate(); err != nil {
		t.Errorf("zero sample rejected: %v", err)
	}
	if err := (Sample{Time: -1, AccessNum: 1, MissNum: 1}).Validate(); err != nil {
		t.Errorf("negative time is legal (relative clocks): %v", err)
	}
	if err := (Sample{AccessNum: -0.001}).Validate(); err == nil {
		t.Error("negative AccessNum accepted")
	}
	if err := (Sample{MissNum: math.NaN()}).Validate(); err == nil {
		t.Error("NaN MissNum accepted")
	}
}

// TestSampleJSONBackCompat is the regression test for the bw/lat wire
// extension: samples produced before the DRAM fields existed (3-field
// form) must still decode, with the missing fields reading as zero; a
// zero-DRAM sample must still *encode* to the old 3-field form.
func TestSampleJSONBackCompat(t *testing.T) {
	var s Sample
	if err := json.Unmarshal([]byte(`{"t":1.25,"access":120,"miss":8}`), &s); err != nil {
		t.Fatalf("legacy 3-field sample rejected: %v", err)
	}
	if s.BWBytes != 0 || s.AvgLatency != 0 {
		t.Fatalf("legacy sample grew DRAM fields: %+v", s)
	}
	b, err := json.Marshal(Sample{Time: 1, AccessNum: 2, MissNum: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"bw"`) || strings.Contains(string(b), `"lat"`) {
		t.Fatalf("zero-DRAM sample emits new fields: %s", b)
	}
}

func TestSampleJSONDRAMFields(t *testing.T) {
	in := Sample{Time: 2.5, AccessNum: 10, MissNum: 4, BWBytes: 6.4e7, AvgLatency: 3.2e-8}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"bw":`, `"lat":`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("wire form %s missing %s", b, key)
		}
	}
	var out Sample
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v -> %+v", in, out)
	}
	// Hostile DRAM values are rejected on decode and on Validate.
	for _, c := range []string{
		`{"t":1,"access":2,"miss":3,"bw":-1}`,
		`{"t":1,"access":2,"miss":3,"lat":-1e-9}`,
		`{"t":1,"access":2,"miss":3,"bw":1e999}`,
	} {
		var s Sample
		if err := json.Unmarshal([]byte(c), &s); err == nil {
			t.Errorf("accepted %s as %+v", c, s)
		}
	}
	if err := (Sample{BWBytes: math.NaN()}).Validate(); err == nil {
		t.Error("NaN BWBytes accepted")
	}
	if err := (Sample{AvgLatency: math.Inf(1)}).Validate(); err == nil {
		t.Error("Inf AvgLatency accepted")
	}
}
