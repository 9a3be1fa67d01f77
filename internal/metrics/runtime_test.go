package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(500)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1500 {
		t.Fatalf("counter = %d, want %d", got, 8*1500)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	r.RegisterCounter("memdos_demo_total", "demo counter", &c)
	r.RegisterGaugeFunc("memdos_demo_depth", "demo gauge", func() []Point { return []Point{{Value: 2.5}} })
	r.RegisterGaugeFunc("memdos_demo_shards", "per-shard", func() []Point {
		// Deliberately unsorted: WriteTo must sort by label set.
		return []Point{{Labels: `shard="1"`, Value: 2}, {Labels: `shard="0"`, Value: 1}}
	})

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP memdos_demo_total demo counter",
		"# TYPE memdos_demo_total counter",
		"memdos_demo_total 7",
		"# TYPE memdos_demo_depth gauge",
		"memdos_demo_depth 2.5",
		"memdos_demo_shards{shard=\"0\"} 1",
		"memdos_demo_shards{shard=\"1\"} 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Label sets render in sorted order.
	if strings.Index(out, `shard="0"`) > strings.Index(out, `shard="1"`) {
		t.Error("labelled points not sorted")
	}
	// Families render in registration order.
	if strings.Index(out, "memdos_demo_total") > strings.Index(out, "memdos_demo_depth") {
		t.Error("families not in registration order")
	}
}

func TestRegistryEmptyFamilyOmitted(t *testing.T) {
	r := NewRegistry()
	r.RegisterGaugeFunc("memdos_empty_family", "nothing yet", func() []Point { return nil })
	var sb strings.Builder
	r.WriteTo(&sb)
	if strings.Contains(sb.String(), "memdos_empty_family") {
		t.Errorf("empty family rendered: %s", sb.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter("memdos_dup_total", "", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterCounter("memdos_dup_total", "", &c)
}

func TestRegisterRejectsNonCanonicalName(t *testing.T) {
	for _, name := range []string{"demo_total", "memdos_Demo_total", "memdos_demo-total", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", name)
				}
			}()
			var c Counter
			NewRegistry().RegisterCounter(name, "", &c)
		}()
	}
}
