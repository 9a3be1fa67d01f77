package main

import (
	"fmt"
)

// inlineLayerMetrics are the per-layer metrics read off the workload's
// own run rather than a probe. A workload whose layers do not produce
// one reports 0 for it: the scoring service is idle on fleet_paced, the
// generator never runs late in a closed loop, and so on.
var inlineLayerMetrics = []string{
	"gen.late_p99_ms", "gen.late_max_ms",
	"stream.decisions_per_ksample", "stream.queue_depth_max", "stream.shed_share", "stream.subscriber_dropped",
	"stream.score_batch_fill", "stream.score_busy_share", "stream.windows_shed_share",
	"sim.result_digest",
}

// runTraced produces the per-layer metrics: an untraced pass and a traced
// pass of the same size (their difference is the tracing overhead), then
// every layer probe. The spans of the traced pass and of the probes go to
// path.
func runTraced(w workloadDef, seed uint64, sz sizes, path string) (*result, error) {
	in, err := generateInputs(seed)
	if err != nil {
		return nil, err
	}
	stopAwake, err := sz.awake()
	if err != nil {
		return nil, err
	}
	defer stopAwake()
	plain, err := w.run(in, sz, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	rec := newRecorder(1)
	res, err := w.run(in, sz, rec)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	p := &prober{in: in, rec: rec, m: res.layer, div: sz.probeDiv}
	if err := p.runProbes(); err != nil {
		return nil, err
	}
	for _, name := range inlineLayerMetrics {
		if _, ok := res.layer[name]; !ok {
			res.layer[name] = 0
		}
	}
	base := plain.e2e["cpu_us_per_work"]
	res.layer["trace.overhead_share"] = (res.e2e["cpu_us_per_work"] - base) / base
	res.layer["trace.accounted_share"] = accountedUs(w.name, p.costs) / base
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.valid = res.valid && plain.valid
	res.notes = append(append(in.notes, plain.notes...), res.notes...)
	res.layer["e2e.fail_share"] = float64(res.failed) / float64(res.attempted)
	res.layer["e2e.valid"] = 0
	if res.valid {
		res.layer["e2e.valid"] = 1
	}
	if err := writeTraceFile(path, rec.file(w.name, seed)); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "span file: "+path)
	return res, nil
}

// accountedUs is the process CPU per unit of work that the layer probes
// explain for a workload, in microseconds: the sum of the probes of the
// layers the workload's unit of work passes through. What remains of
// cpu_us_per_work is loopback TCP, the scheduler, the collector and, on
// fleet_paced, respond.
func accountedUs(workload string, costs map[string]probeCost) float64 {
	var ns float64
	switch workload {
	case "fleet_paced":
		// Per sample: one small frame's encode and daemon path (decode,
		// Hub.Ingest, detectors) spread over its samples.
		ns = (costs["pcm.encode_small"].cpuNs + costs["daemon.stream_small"].cpuNs) / float64(fleetSizeFor(defaultSeconds).frameSamples)
	case "ingest_sat":
		ns = costs["pcm.encode"].cpuNs + costs["daemon.stream"].cpuNs
	case "cascade_replay":
		// Per window: a stride of samples through hub and detectors and
		// window assembly, then one window's share of a full batch.
		ns = cascadeStride*(costs["stream.hub"].cpuNs+costs["stream.window_assembly"].cpuNs) + costs["dnn.score_us_per_window_b64"].cpuNs
	case "sim_cluster":
		ns = costs["cluster.step"].cpuNs
	}
	return ns / 1e3
}
