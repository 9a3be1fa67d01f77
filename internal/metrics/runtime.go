package metrics

// This file adds *serving-path* metrics — lock-free counters and sampled
// gauges with Prometheus-style text exposition — as opposed to the paper's
// evaluation metrics in metrics.go. The streaming hub (internal/stream)
// and the memdosd daemon use them for their /metrics endpoint; they are
// deliberately tiny so hot-path increments cost one atomic add.

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Point is one exposed time-series value. Labels, when non-empty, is a
// pre-formatted Prometheus label set without braces (`shard="3"`).
type Point struct {
	Labels string
	Value  float64
}

// collector yields the current points of one registered metric family.
type collector func() []Point

type family struct {
	name, help, typ string
	collect         collector
}

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Register* calls may happen at any time; WriteTo
// is safe concurrently with them. A Register* call panics on a name that
// is already registered or does not match namePattern.
type Registry struct {
	mu sync.Mutex
	// families and byName hold the registered metric families, in
	// registration order and by name. guarded by mu.
	families []family
	byName   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// namePattern is the one shape a memdos metric family name may take: the
// memdos_ namespace followed by lower_snake_case.
var namePattern = regexp.MustCompile(`^memdos_[a-z0-9_]+$`)

func (r *Registry) register(name, help, typ string, c collector) {
	if !namePattern.MatchString(name) {
		panic(fmt.Sprintf("metrics: name %q does not match %s", name, namePattern))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.byName[name] = len(r.families)
	r.families = append(r.families, family{name: name, help: help, typ: typ, collect: c})
}

// RegisterCounter exposes c under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(name, help, "counter", func() []Point {
		return []Point{{Value: float64(c.Value())}}
	})
}

// RegisterGaugeFunc exposes the result of fn — which may return several
// labelled points — under name, sampled at exposition time.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() []Point) {
	r.register(name, help, "gauge", fn)
}

// RegisterCounterFunc is RegisterGaugeFunc with counter semantics.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() []Point) {
	r.register(name, help, "counter", fn)
}

// WriteTo renders every family in the Prometheus text format, families in
// registration order and labelled points sorted by label set.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]family(nil), r.families...)
	r.mu.Unlock()

	var n int64
	for _, f := range fams {
		pts := f.collect()
		if len(pts) == 0 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Labels < pts[j].Labels })
		m, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		n += int64(m)
		if err != nil {
			return n, err
		}
		for _, p := range pts {
			if p.Labels == "" {
				m, err = fmt.Fprintf(w, "%s %v\n", f.name, p.Value)
			} else {
				m, err = fmt.Fprintf(w, "%s{%s} %v\n", f.name, p.Labels, p.Value)
			}
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
