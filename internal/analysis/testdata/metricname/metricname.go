// Package metricname is golden-file input for the metricname check:
// names handed to the metrics registry must be compile-time constants
// matching ^memdos_[a-z0-9_]+$.
package metricname

import (
	"fmt"

	"memdos/internal/metrics"
)

// goodName shows that named constants are resolved, not just literals.
const goodName = "memdos_testdata_ticks_total"

// Register exercises every outcome against one registry.
func Register(reg *metrics.Registry, c *metrics.Counter, id int) {
	reg.RegisterCounter(goodName, "fine: constant, canonical shape", c)
	reg.RegisterGaugeFunc("memdos_testdata_depth", "fine: literal, canonical shape", nil)

	reg.RegisterCounter("testdata_ticks_total", "missing namespace", c) // want `metric name "testdata_ticks_total" does not match`
	reg.RegisterGaugeFunc("memdos_Depth", "uppercase", nil)             // want `metric name "memdos_Depth" does not match`
	reg.RegisterCounterFunc("memdos-dashes", "bad separator", nil)      // want `metric name "memdos-dashes" does not match`

	reg.RegisterGaugeFunc(fmt.Sprintf("memdos_shard_%d", id), "runtime-built", nil) // want `metric name passed to RegisterGaugeFunc is not a compile-time string constant`

	reg.RegisterCounter("legacy_total", "grandfathered pre-namespace name", c) //memdos:ignore metricname golden input for suppression behavior // wantsup `metric name "legacy_total" does not match`
}
