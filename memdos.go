// Package memdos is a simulation-backed reproduction of "Impact of Memory
// DoS Attacks on Cloud Applications and Real-Time Detection Schemes"
// (Li, Sen, Shen, Chuah — ICPP 2020 / IEEE-ACM ToN 2022).
//
// It provides, end to end and with no dependencies beyond the standard
// library:
//
//   - a virtualized-server substrate (set-associative LLC, lockable memory
//     bus, NUMA DRAM memory controller, VM scheduler with execution
//     throttling, PCM-style hardware counters),
//   - the two memory DoS attacks (atomic bus locking, LLC cleansing with
//     its probing phase), the paper's adaptive attack schedule, and a
//     beyond-the-paper DRAM bandwidth hog,
//   - counter-process models of the paper's ten cloud applications,
//   - the detection schemes: SDS/B, SDS/P, combined SDS, the LSTM-FCN
//     cascade DNN detector (including a from-scratch deep-learning stack),
//     and the prior-work KStest baseline, and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// This file is a façade re-exporting the names README.md, examples/ and
// cmd/ use; the implementation lives under internal/. See README.md for
// a tour and examples/ for runnable programs.
package memdos

import (
	"memdos/internal/attack"
	"memdos/internal/core"
	"memdos/internal/dnn"
	"memdos/internal/experiments"
	"memdos/internal/metrics"
	"memdos/internal/vmm"
	"memdos/internal/workload"
)

// Detection schemes (Sections IV and V).
type (
	// Detector is a real-time memory-DoS detection scheme consuming PCM
	// samples.
	Detector = core.Detector
	// Decision is one dated alarm verdict.
	Decision = core.Decision
	// CascadeSample is one labelled training window of the LSTM-FCN
	// cascade.
	CascadeSample = dnn.CascadeSample
)

// Detector constructors.
var (
	// DefaultParams returns the paper's Table I values.
	DefaultParams = core.DefaultParams
	// NewSDS builds the combined detector from a profile.
	NewSDS = core.NewSDS
	// NewSDSP builds the period detector (periodic profiles only).
	NewSDSP = core.NewSDSP
	// NewDNNDetector builds the DNN detector from a trained cascade.
	NewDNNDetector = core.NewDNNDetector
	// NewSDSU builds the utilization-correlated extension detector.
	NewSDSU = core.NewSDSU
)

// Simulated testbed (substrates).
type (
	// ServerStep is one simulation step's completed PCM samples.
	ServerStep = vmm.StepResult
	// AttackWindow enables the attack during [Start, End).
	AttackWindow = attack.Window
)

// Testbed constructors and registries.
var (
	// NewServer builds a simulated server.
	NewServer = vmm.NewServer
	// DefaultServerConfig matches the paper's testbed (T_PCM = 0.01 s).
	DefaultServerConfig = vmm.DefaultConfig
	// WorkloadByAbbrev resolves a Table II abbreviation.
	WorkloadByAbbrev = workload.ByAbbrev
	// NewBusLockAttack builds the atomic bus locking attacker.
	NewBusLockAttack = attack.NewBusLock
	// NewLLCCleansingAttack builds the LLC cleansing attacker.
	NewLLCCleansingAttack = attack.NewLLCCleansing
)

// Evaluation (Section VI).
type (
	// Interval is a ground-truth attack span.
	Interval = metrics.Interval
	// ExperimentEnv hands detector factories the run environment.
	ExperimentEnv = experiments.Env
	// DetectorFactory builds a detector for a concrete run.
	DetectorFactory = experiments.DetectorFactory
)

// Attack modes for a run, and how long ProfileApplication profiles a
// fresh VM in every experiment (Section IV-B.1's safe start).
const (
	BusLock         = experiments.BusLock
	LLCCleansing    = experiments.Cleansing
	ProfileDuration = experiments.ProfileDuration
)

// Experiment harness entry points.
var (
	// RunExperiment executes one configured run with one detector.
	RunExperiment = experiments.Run
	// DefaultRunSpec builds a Scenario 1 run.
	DefaultRunSpec = experiments.DefaultRunSpec
	// ProfileApplication profiles an app on a clean server.
	ProfileApplication = experiments.ProfileApp
	// ScoreRun scores a run's decisions against its ground truth.
	ScoreRun = experiments.Score
	// Evaluate scores a decision time-line directly.
	Evaluate = metrics.Evaluate
	// DetectionDelay extracts per-attack detection delays.
	DetectionDelay = metrics.DetectionDelay
	// SDSDetectorFactory builds SDS for an experiment run.
	SDSDetectorFactory = experiments.SDSFactory
	// KSDetectorFactory builds the KStest baseline wired to throttling.
	KSDetectorFactory = experiments.KSFactory
)
