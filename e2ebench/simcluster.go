package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"memdos/internal/attack"
	"memdos/internal/cluster"
	"memdos/internal/core"
	"memdos/internal/experiments"
	"memdos/internal/mem"
	"memdos/internal/respond"
)

// sim_cluster: the researcher's workload — the simulator half of the
// repository (sim, cache, bus, mem, vmm, cluster, par) that no serving
// workload touches. The mitigated arm of the cluster study: SDS detection
// on every victim, the default respond ladder, real migration.

const (
	simApp          = "KM"
	simBusLockDuty  = 0.7
	simTicksPerSec  = 1 / tpcm
	simReplicaHosts = 8
)

// simSize fixes the workload: the run extends Cluster.Run in segments of
// segSimSeconds simulated seconds each.
type simSize struct {
	hosts, victims, attackers, utilities int
	segSimSeconds                        float64
	segments                             int           // most measured segments; one more runs first and is discarded
	budget                               time.Duration // run length; 0 runs exactly `segments`
	replicaSimSeconds                    float64
}

// simSegSeconds calibrates a segment: 25 simulated seconds of 1024 VMs
// is 2.6 M VM-ticks, about half a second on the 2-core reference box at
// the commit that introduced the benchmark.
const simSegSeconds = 25

func simSizeFor(seconds int) simSize {
	return simSize{hosts: 128, victims: 64, attackers: 32, utilities: 928,
		segSimSeconds: simSegSeconds, segments: segmentCap(seconds), budget: time.Duration(seconds) * time.Second,
		replicaSimSeconds: 60}
}

// digestSegments is how many measured segments the result digest covers.
// Every run gets that far whatever the speed of the box, so the digest
// is a function of the seed and the simulator alone.
func (ss simSize) digestSegments() int { return min(ss.segments, minSegments) }

func (ss simSize) vms() int { return ss.victims + ss.attackers + ss.utilities }

// buildCluster constructs and populates one cluster: the part of a study
// run that is set-up.
func buildCluster(seed uint64, hosts, victims, attackers, utilities, workers int) (*cluster.Cluster, error) {
	params := core.DefaultParams()
	prof, err := experiments.ProfileApp(simApp, profileDur, params)
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", simApp, err)
	}
	cfg := cluster.DefaultConfig()
	cfg.Hosts = hosts
	cfg.Seed = seed
	cfg.Scheduler = cluster.Spread
	cfg.Workers = workers
	numa := mem.DefaultNUMAConfig(1)
	cfg.Host.Mem = &numa
	cfg.Detector = func(string) (core.Detector, error) { return core.NewSDS(prof, params) }
	cfg.Respond = respond.DefaultConfig()
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < victims; i++ {
		if err := c.AddVictim(fmt.Sprintf("victim%03d", i), simApp); err != nil {
			return nil, err
		}
	}
	for i := 0; i < attackers; i++ {
		atk, err := attack.NewBusLock(attack.Window{Start: 0, End: math.Inf(1)}, simBusLockDuty)
		if err != nil {
			return nil, err
		}
		if err := c.AddAttacker(fmt.Sprintf("attacker%03d", i), atk, fmt.Sprintf("victim%03d", i%victims)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < utilities; i++ {
		if err := c.AddUtility(fmt.Sprintf("util%04d", i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// resultDigest hashes a cluster.Result. A speed-only change to the
// simulator must leave it unchanged.
func resultDigest(r *cluster.Result) (uint64, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

func runSimCluster(in *inputs, ss simSize, builds int, rec *recorder) (*result, error) {
	res := newResult()
	build := func() (*cluster.Cluster, error) {
		return buildCluster(in.seed, ss.hosts, ss.victims, ss.attackers, ss.utilities, 0)
	}
	noClose := func(*cluster.Cluster) error { return nil }
	c, err := timedBuilds(res, builds, build, noClose)
	if err != nil {
		return nil, err
	}

	runtimeSettle()
	var (
		blocks blockLog
		first  rtSnap
		out    *cluster.Result
	)
	segWork := ss.segSimSeconds * simTicksPerSec * float64(ss.vms())
	clock := newSegmentClock(ss.budget, ss.segments)
	for seg := 0; seg == 0 || clock.more(blocks.measured()); seg++ {
		before := readRT()
		if seg == 1 {
			first = before
		}
		until := float64(seg+1) * ss.segSimSeconds
		if out, err = c.Run(until); err != nil {
			return nil, err
		}
		after := readRT()
		// The study's numbers are read from the run summary; asking for
		// it again steps nothing and returns the same summary.
		if _, err = c.Run(until); err != nil {
			return nil, err
		}
		read := time.Now()
		if rec != nil {
			run := rec.add("cluster.run", 0, before.at, after.at)
			rec.addSpan(span{Name: "cluster.summary", Parent: run, StartNs: after.at.Sub(rec.t0).Nanoseconds(), EndNs: read.Sub(rec.t0).Nanoseconds()})
			rec.count("cluster", map[string]float64{
				"sim_seconds": out.Duration, "migrations": float64(out.Migrations),
				"alarm_transitions": float64(out.AlarmTransitions), "attacker_moves": float64(out.AttackerMoves),
			})
		}
		if seg == 0 {
			continue
		}
		blocks.add(before, after, read, segWork)
		if blocks.measured() == ss.digestSegments() {
			if res.digest, err = resultDigest(out); err != nil {
				return nil, err
			}
		}
	}
	last := readRT()

	// Correctness: the main run did something, and a small replica is
	// bit-identical at one worker and at the default worker count.
	checks, bad := 3, 0
	if out.AlarmTransitions <= 0 {
		bad++
	}
	if out.Migrations <= 0 {
		bad++
	}
	if !(out.MeanVictimSpeed > 0 && out.MeanVictimSpeed <= 1) {
		bad++
	}
	var replica [2]uint64
	for i, workers := range []int{1, 0} {
		rc, err := buildCluster(in.seed, simReplicaHosts, 4, 2, 26, workers)
		if err != nil {
			return nil, err
		}
		rr, err := rc.Run(ss.replicaSimSeconds)
		if err != nil {
			return nil, err
		}
		if replica[i], err = resultDigest(rr); err != nil {
			return nil, err
		}
	}
	checks++
	if replica[0] != replica[1] {
		bad++
	}
	res.attempted = int64(checks)
	res.failed = int64(bad)
	res.notes = append(res.notes, fmt.Sprintf("%d segments of %g simulated s, %d VMs on %d hosts: %d alarm transitions, %d migrations, victim speed %.3f",
		len(blocks.segs), ss.segSimSeconds, ss.vms(), ss.hosts, out.AlarmTransitions, out.Migrations, out.MeanVictimSpeed))

	blocks.report(res)
	// 2^52 keeps the digest exact in a float64 metric value.
	res.layer["sim.result_digest"] = float64(res.digest % (1 << 52))
	rtMetrics(res.layer, first, last, float64(len(blocks.segs))*segWork)
	return res, moreBuilds(res, builds, build, noClose)
}
