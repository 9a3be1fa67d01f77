// Package respond closes the loop from detection to mitigation: a policy
// engine consumes alarm raise/clear events and drives graduated,
// reversible hypervisor actions against the suspect VM of each protected
// session. Every caller takes its raises and clears from one place, the
// edges a core.IncidentFold reports over a session's decisions. The
// streaming detection hub (internal/stream) calls the engine directly, as
// an observer on the shard that folds each transition, and makes it
// Forget a session when the session closes (see Attach); a simulation's
// detector loop calls Observe itself.
//
// The paper detects memory DoS attacks but leaves the response open. Its
// Section II argument — reproduced by experiments.MigrationStudy — is
// that migration alone fails because the adversary re-co-locates, while
// Zhang et al. ("Memory DoS Attacks in Multi-tenant Clouds", arXiv:
// 1603.03404) show execution throttling of the suspect VM is the
// effective mitigation. The engine therefore escalates each session
// through a ladder of increasingly strong actions
//
//	idle → throttle(d_1) → … → throttle(d_T) → membw-limit → cache partition → migrate
//
// (the membw-limit rung — a MemGuard-style DRAM bandwidth budget on the
// suspect, after Zhang et al. — and the partition rung are each present
// only when enabled in Config)
//
// and backs off the same ladder with hysteresis and a cooldown:
//
//   - a raise on an idle session applies the first throttle step;
//   - a re-raise while mitigated (the current step was not enough), or a
//     raise within Cooldown seconds of the last full release (a flapping
//     detector), escalates one step instead of restarting at the bottom;
//   - an alarm sustained for EscalateAfter seconds escalates one step;
//   - after a clear, the current step is held for ClearAfter seconds of
//     quiet, then the engine de-escalates one step per further
//     ClearAfter, so a flapping detector cannot thrash the hypervisor;
//   - migration is terminal for the episode: the suspect loses
//     co-residence, so all local mitigation is released and the session
//     re-enters the ladder from the cooldown state.
//
// The engine never reads the wall clock and keeps time per session: the
// newest of its own Observe/Advance timestamps and the last Tick (the
// fleet clock a simulation shares), so one session's far-future timestamp
// moves no other. Tick steps sessions in name order, so closed-loop runs
// are bit-reproducible (experiments.ClosedLoop). Safe for concurrent use.
package respond

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"memdos/internal/metrics"
	"memdos/internal/pcm"
)

// Config parameterizes the mitigation ladder and its timing. All times
// are in the seconds of whatever time domain feeds the engine (simulated
// seconds in the experiments, sample timestamps in memdosd), on each
// session's own time: a session that stops reporting holds its rung
// until a Tick moves it or CloseSession/Forget releases it.
type Config struct {
	// ThrottleDuties are the escalating execution-throttle steps applied
	// to the suspect VM: duty d withholds fraction d of its execution.
	// Must be ascending, each in (0, 1].
	ThrottleDuties []float64
	// EnableBandwidth adds a MemGuard-style DRAM bandwidth-budget rung
	// between the last throttle step and the partition rung: the suspect
	// VM's delivered memory bandwidth is capped at BandwidthBudget
	// (effective against a DRAM bandwidth hog that execution throttling
	// alone only dents; see vmm.SetMemBandwidthLimit).
	EnableBandwidth bool
	// BandwidthBudget is the bytes-per-second cap the bandwidth rung
	// applies. Must be positive when EnableBandwidth is set.
	BandwidthBudget float64
	// EnablePartition adds a pseudo cache-partitioning rung above the
	// last throttle step (effective against LLC cleansing; a bus-locking
	// attacker is unaffected by it, see vmm.SetCachePartition).
	EnablePartition bool
	// EnableMigration adds victim migration as the final rung. Migration
	// is one-shot: the engine releases all local mitigation afterwards.
	EnableMigration bool
	// EscalateAfter escalates one rung when an alarm stays raised this
	// many seconds at the current rung. Must be positive.
	EscalateAfter float64
	// ClearAfter is the hysteresis hold: after a clear, the current rung
	// is kept for this many seconds, then the engine steps down one rung
	// per further ClearAfter of quiet. Must be positive.
	ClearAfter float64
	// Cooldown is the flap guard: a raise within Cooldown seconds of the
	// last full release re-enters the ladder one rung above where the
	// session left it. Non-negative.
	Cooldown float64
}

// maxLog bounds each session's retained action log.
const maxLog = 64

// DefaultConfig returns a conservative ladder: three throttle steps,
// partitioning and migration enabled, 30 s escalation, 10 s hysteresis,
// 60 s flap cooldown.
func DefaultConfig() Config {
	return Config{
		ThrottleDuties:  []float64{0.25, 0.5, 0.75},
		EnablePartition: true,
		EnableMigration: true,
		EscalateAfter:   30,
		ClearAfter:      10,
		Cooldown:        60,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.ThrottleDuties) == 0 {
		return fmt.Errorf("respond: need at least one throttle duty")
	}
	prev := 0.0
	for i, d := range c.ThrottleDuties {
		if d <= prev || d > 1 {
			return fmt.Errorf("respond: throttle duties must be ascending in (0,1], got %v at %d", d, i)
		}
		prev = d
	}
	if c.EnableBandwidth && c.BandwidthBudget <= 0 {
		return fmt.Errorf("respond: bandwidth rung enabled with non-positive budget %v", c.BandwidthBudget)
	}
	if c.EscalateAfter <= 0 {
		return fmt.Errorf("respond: non-positive EscalateAfter %v", c.EscalateAfter)
	}
	if c.ClearAfter <= 0 {
		return fmt.Errorf("respond: non-positive ClearAfter %v", c.ClearAfter)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("respond: negative Cooldown %v", c.Cooldown)
	}
	return nil
}

// Action kinds, as recorded in Action.Kind and the JSON action log.
const (
	ActionThrottle  = "throttle"
	ActionBandwidth = "membw-limit"
	ActionPartition = "partition"
	ActionRelease   = "release"
	ActionMigrate   = "migrate"
)

// Action is one recorded policy transition of a session.
type Action struct {
	Time float64 `json:"t"`
	// Kind is one of the Action* constants (ActionThrottle,
	// ActionBandwidth, ActionPartition, ActionRelease, ActionMigrate).
	Kind string `json:"kind"`
	// Level is the ladder rung after the transition.
	Level int `json:"level"`
	// Duty is the applied throttle duty (throttle/release kinds).
	Duty float64 `json:"duty"`
	// Reason is why the transition happened: "raise", "flap-raise",
	// "re-raise", "sustained", "backoff", "override" or "migrated".
	Reason string `json:"reason"`
	// Dest is the destination host reported by the actuator (migrate
	// kind only; empty when the actuator has no host notion).
	Dest string `json:"dest,omitempty"`
	// Err carries the actuator failure, if any.
	Err string `json:"err,omitempty"`
}

// Transition reasons.
const (
	reasonRaise     = "raise"
	reasonFlapRaise = "flap-raise"
	reasonReRaise   = "re-raise"
	reasonSustained = "sustained"
	reasonBackoff   = "backoff"
	reasonOverride  = "override"
	reasonMigrated  = "migrated"
)

// ForceNone is the Force level meaning "no forced level" (auto policy).
const ForceNone = -1

// SessionState is a point-in-time view of one session's response state.
type SessionState struct {
	Session string `json:"session"`
	// Level is the current ladder rung (0 = no mitigation).
	Level     int    `json:"level"`
	LevelName string `json:"levelName"`
	// AlarmActive mirrors the last observed alarm transition.
	AlarmActive bool `json:"alarmActive"`
	// Paused: the operator disabled mitigation for this session.
	Paused bool `json:"paused"`
	// Forced is the operator-pinned rung, or ForceNone.
	Forced int `json:"forced"`
	// PeakLevel is the highest rung reached so far.
	PeakLevel int `json:"peakLevel"`
	// Since is when the session last changed rung.
	Since float64 `json:"since"`
	// Escalations / Deescalations / Migrations count transitions.
	Escalations   uint64 `json:"escalations"`
	Deescalations uint64 `json:"deescalations"`
	Migrations    int    `json:"migrations"`
	// Actions is the bounded, most-recent-last transition log.
	Actions []Action `json:"actions,omitempty"`
}

// hold is the local mitigation held against a session's suspect: the
// throttle duty (0 = none), and whether the DRAM bandwidth cap and the
// cache partition are on.
type hold struct {
	duty      float64
	bandwidth bool
	partition bool
}

// rung is one level of the ladder: its name and the mitigation it holds.
// A migrate rung is terminal and holds nothing.
type rung struct {
	name    string
	hold    hold
	migrate bool
}

// session is the engine's per-session mutable state.
type session struct {
	name  string
	level int
	alarm bool
	now   float64 // the session's time, never behind the fleet clock

	raisedAt   float64
	clearedAt  float64
	levelSince float64
	// memLevel/memUntil remember the ladder position at the last full
	// release; a raise before memUntil re-enters one rung above it.
	memLevel int
	memUntil float64

	peak   int
	paused bool
	forced int

	// cur is what the actuator currently holds applied for the session.
	cur hold

	migrations    int
	escalations   uint64
	deescalations uint64
	// actions is the action log, a ring of at most maxLog entries: it
	// grows to maxLog, then actions[head] is the oldest entry and the
	// next action overwrites it.
	actions []Action
	head    int
}

// Engine is the closed-loop mitigation policy engine.
type Engine struct {
	cfg Config
	act Actuator
	// rungs is the ladder, built once by New: rungs[0] is idle, rungs[l]
	// the name and hold of level l.
	rungs []rung

	mu sync.Mutex
	// tick is the fleet clock, the latest time passed to Tick. guarded by mu.
	tick float64
	// sessions holds per-VM response state in name order, the order Tick
	// walks it in; names are found by binary search. guarded by mu.
	sessions []*session

	events           metrics.Counter
	throttles        metrics.Counter
	bwLimits         metrics.Counter
	partitions       metrics.Counter
	releases         metrics.Counter
	migrations       metrics.Counter
	escalations      metrics.Counter
	deescalations    metrics.Counter
	overrides        metrics.Counter
	actuatorErrors   metrics.Counter
	eventsSuppressed metrics.Counter
}

// New builds an engine driving the given actuator.
func New(cfg Config, act Actuator) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if act == nil {
		return nil, fmt.Errorf("respond: nil actuator")
	}
	rungs := []rung{{name: "idle"}}
	for _, d := range cfg.ThrottleDuties {
		rungs = append(rungs, rung{name: fmt.Sprintf("throttle(%.2f)", d), hold: hold{duty: d}})
	}
	// The rungs above the throttle steps keep the strongest throttle
	// underneath, and the partition rung keeps the bandwidth cap too.
	top := rungs[len(rungs)-1].hold
	if cfg.EnableBandwidth {
		top.bandwidth = true
		rungs = append(rungs, rung{name: "membw-limit", hold: top})
	}
	if cfg.EnablePartition {
		top.partition = true
		rungs = append(rungs, rung{name: "partition", hold: top})
	}
	if cfg.EnableMigration {
		rungs = append(rungs, rung{name: "migrate", migrate: true})
	}
	return &Engine{cfg: cfg, act: act, rungs: rungs}, nil
}

// MaxLevel returns the top ladder rung.
func (e *Engine) MaxLevel() int { return len(e.rungs) - 1 }

// LevelName names a ladder rung.
func (e *Engine) LevelName(level int) string {
	if level >= len(e.rungs) {
		return fmt.Sprintf("level(%d)", level)
	}
	return e.rungs[max(level, 0)].name
}

// Ladder lists every rung name from idle to the top.
func (e *Engine) Ladder() []string {
	out := make([]string, len(e.rungs))
	for i, r := range e.rungs {
		out[i] = r.name
	}
	return out
}

// validName holds session names to the hub's rule.
func validName(name string) error {
	if err := pcm.ValidSessionID(name); err != nil {
		return fmt.Errorf("respond: %w", err)
	}
	return nil
}

// findLocked returns name's index in e.sessions and whether it is there;
// when it is not, the index is where it would go. Caller holds e.mu.
func (e *Engine) findLocked(name string) (int, bool) {
	return slices.BinarySearchFunc(e.sessions, name, func(s *session, name string) int {
		return strings.Compare(s.name, name)
	})
}

// sessionLocked returns the state record for name, creating it at
// idle. Caller holds e.mu.
func (e *Engine) sessionLocked(name string) *session {
	i, ok := e.findLocked(name)
	if ok {
		return e.sessions[i]
	}
	s := &session{name: name, forced: ForceNone, memLevel: 0, memUntil: -1, now: e.tick}
	e.sessions = slices.Insert(e.sessions, i, s)
	return s
}

// Observe feeds one alarm transition of the named session: raised true
// for a raise, false for a clear. It implies Advance(name, t) first; a t
// behind the session's time is clamped forward, and no other session
// moves.
func (e *Engine) Observe(name string, t float64, raised bool) error {
	if err := validName(name); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sessionLocked(name)
	e.stepLocked(s, t)
	now := s.now
	e.events.Inc()
	if raised {
		if s.alarm {
			return nil // duplicate raise
		}
		s.alarm = true
		s.raisedAt = now
		if s.paused || s.forced != ForceNone {
			e.eventsSuppressed.Inc()
			return nil
		}
		if s.level == 0 {
			entry, reason := 1, reasonRaise
			if now <= s.memUntil && s.memLevel+1 > 1 {
				entry, reason = s.memLevel+1, reasonFlapRaise
			}
			e.escalate(s, entry, now, reason)
		} else {
			e.escalate(s, s.level+1, now, reasonReRaise)
		}
		return nil
	}
	if !s.alarm {
		return nil // duplicate clear
	}
	s.alarm = false
	s.clearedAt = now
	// No immediate action: back-off happens through tick hysteresis.
	return nil
}

// Advance moves a known session's time to t and applies the time-based
// transition, if any, due by then: the hub calls it with each decision
// that raised or cleared nothing. It never creates a session.
func (e *Engine) Advance(name string, t float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i, ok := e.findLocked(name); ok {
		e.stepLocked(e.sessions[i], t)
	}
}

// Tick moves the fleet clock to now and steps every session, in sorted
// name order for determinism.
func (e *Engine) Tick(now float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if now > e.tick {
		e.tick = now
	}
	for _, s := range e.sessions {
		e.stepLocked(s, e.tick)
	}
}

// stepLocked moves the session's time to t unless it is already later;
// it inlines, so Tick pays no call for an idle session. Caller holds e.mu.
func (e *Engine) stepLocked(s *session, t float64) {
	if t > s.now {
		s.now = t
	}
	if s.alarm || s.level > 0 {
		e.dueLocked(s, s.now)
	}
}

// dueLocked runs the transition, if any, due at now. Caller holds e.mu.
func (e *Engine) dueLocked(s *session, now float64) {
	if s.paused || s.forced != ForceNone {
		return
	}
	switch {
	case s.alarm && s.level > 0 && s.level < e.MaxLevel() &&
		now-s.levelSince >= e.cfg.EscalateAfter:
		e.escalate(s, s.level+1, now, reasonSustained)
	case s.alarm && s.level == 0 &&
		now-max(s.raisedAt, s.levelSince) >= e.cfg.EscalateAfter:
		// Alarm still raised after a migration released everything
		// (or the raise was suppressed): re-enter the ladder.
		e.escalate(s, 1, now, reasonSustained)
	case !s.alarm && s.level > 0 &&
		now-max(s.clearedAt, s.levelSince) >= e.cfg.ClearAfter:
		e.deescalate(s, now)
	}
}

// escalate raises the session to the target rung (capped at the top) and
// applies it. Caller holds e.mu.
func (e *Engine) escalate(s *session, to int, now float64, reason string) {
	to = min(to, e.MaxLevel())
	if to <= s.level {
		return
	}
	s.escalations++
	e.escalations.Inc()
	e.apply(s, to, now, reason)
}

// deescalate steps the session down one rung. Caller holds e.mu.
func (e *Engine) deescalate(s *session, now float64) {
	s.deescalations++
	e.deescalations.Inc()
	from := s.level
	e.apply(s, s.level-1, now, reasonBackoff)
	if s.level == 0 {
		s.memLevel = from
		s.memUntil = now + e.cfg.Cooldown
	}
}

// apply moves the session to the given rung. Caller holds e.mu.
func (e *Engine) apply(s *session, level int, now float64, reason string) {
	s.peak = max(s.peak, level)
	s.levelSince = now
	r := e.rungs[level]
	if !r.migrate {
		e.settle(s, r.hold, level, now, reason)
		s.level = level
		return
	}
	// Terminal rung: migrate the victim away, then release all local
	// mitigation — the suspect has lost co-residence. A flap raise within
	// Cooldown re-enters at the top throttle step, never an immediate
	// re-migration.
	res, err := e.act.Migrate(s.name)
	e.migrations.Inc()
	s.migrations++
	e.record(s, Action{Time: now, Kind: ActionMigrate, Level: 0, Reason: reasonMigrated, Dest: res.Dest}, err)
	e.settle(s, hold{}, 0, now, reasonMigrated)
	s.level = 0
	s.memLevel = len(e.cfg.ThrottleDuties) - 1
	s.memUntil = now + e.cfg.Cooldown
}

// settle brings what the session holds to want, invoking the actuator
// only for what differs and always in the same order: drop the partition,
// drop the bandwidth cap, move the throttle, add the cap, add the
// partition. settle(s, hold{}, 0, …) is the full release. Caller holds
// e.mu.
func (e *Engine) settle(s *session, want hold, level int, now float64, reason string) {
	if s.cur.partition && !want.partition {
		err := e.act.Partition(s.name, false)
		e.partitions.Inc()
		e.record(s, Action{Time: now, Kind: ActionPartition, Level: level, Reason: reason}, err)
	}
	if s.cur.bandwidth && !want.bandwidth {
		err := e.act.LimitBandwidth(s.name, 0)
		e.bwLimits.Inc()
		e.record(s, Action{Time: now, Kind: ActionBandwidth, Level: level, Reason: reason}, err)
	}
	if s.cur.duty != want.duty { // duty holds literal 0 or a cfg value copied verbatim, so != detects a no-op exactly
		err := e.act.Throttle(s.name, want.duty)
		if want.duty > 0 {
			e.throttles.Inc()
			e.record(s, Action{Time: now, Kind: ActionThrottle, Level: level, Duty: want.duty, Reason: reason}, err)
		} else {
			e.releases.Inc()
			e.record(s, Action{Time: now, Kind: ActionRelease, Level: 0, Reason: reason}, err)
		}
	}
	if want.bandwidth && !s.cur.bandwidth {
		err := e.act.LimitBandwidth(s.name, e.cfg.BandwidthBudget)
		e.bwLimits.Inc()
		e.record(s, Action{Time: now, Kind: ActionBandwidth, Level: level, Duty: e.cfg.BandwidthBudget, Reason: reason}, err)
	}
	if want.partition && !s.cur.partition {
		err := e.act.Partition(s.name, true)
		e.partitions.Inc()
		e.record(s, Action{Time: now, Kind: ActionPartition, Level: level, Reason: reason}, err)
	}
	s.cur = want
}

// record appends the action (annotated with any actuator error) to the
// session's bounded log, overwriting the oldest entry once it holds
// maxLog. Caller holds e.mu.
func (e *Engine) record(s *session, a Action, err error) {
	if err != nil {
		a.Err = err.Error()
		e.actuatorErrors.Inc()
	}
	if len(s.actions) < maxLog {
		s.actions = append(s.actions, a)
		return
	}
	s.actions[s.head] = a
	s.head = (s.head + 1) % maxLog
}

// Pause releases the session's mitigation and ignores its alarms until
// Resume — the operator's "hands off this VM" override.
func (e *Engine) Pause(name string) (SessionState, error) {
	return e.override(name, func(s *session, now float64) {
		s.paused = true
		s.forced = ForceNone
		e.apply(s, 0, now, reasonOverride)
	})
}

// Force pins the session at the given rung regardless of alarms, until
// Resume (or Force with ForceNone). The migration rung cannot be forced.
func (e *Engine) Force(name string, level int) (SessionState, error) {
	top := e.MaxLevel()
	if e.rungs[top].migrate {
		top--
	}
	if level != ForceNone && (level < 0 || level > top) {
		return SessionState{}, fmt.Errorf("respond: force level %d outside [0,%d]", level, top)
	}
	if level == ForceNone {
		return e.Resume(name)
	}
	return e.override(name, func(s *session, now float64) {
		s.paused = false
		s.forced = level
		e.apply(s, level, now, reasonOverride)
	})
}

// Resume returns the session to automatic policy. If its alarm is still
// raised, mitigation re-enters the ladder at the first rung.
func (e *Engine) Resume(name string) (SessionState, error) {
	return e.override(name, func(s *session, now float64) {
		s.paused = false
		s.forced = ForceNone
		s.levelSince = now
		if s.alarm {
			e.escalate(s, 1, now, reasonOverride)
		}
	})
}

// override runs fn under e.mu, handing it the session's time so override
// closures never reach for the guarded clocks themselves.
func (e *Engine) override(name string, fn func(*session, float64)) (SessionState, error) {
	if err := validName(name); err != nil {
		return SessionState{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.overrides.Inc()
	s := e.sessionLocked(name)
	fn(s, s.now)
	return e.stateLocked(s), nil
}

// Forget drops the session's state, releasing any active mitigation
// (e.g. when its detection session closes).
func (e *Engine) Forget(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.findLocked(name)
	if !ok {
		return
	}
	s := e.sessions[i]
	e.settle(s, hold{}, 0, s.now, reasonOverride)
	e.sessions = slices.Delete(e.sessions, i, i+1)
}

// State returns one session's response state.
func (e *Engine) State(name string) (SessionState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.findLocked(name)
	if !ok {
		return SessionState{}, false
	}
	return e.stateLocked(e.sessions[i]), true
}

// States returns every session's response state, sorted by name.
func (e *Engine) States() []SessionState {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SessionState, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, e.stateLocked(s))
	}
	return out
}

func (e *Engine) stateLocked(s *session) SessionState {
	return SessionState{
		Session:       s.name,
		Level:         s.level,
		LevelName:     e.LevelName(s.level),
		AlarmActive:   s.alarm,
		Paused:        s.paused,
		Forced:        s.forced,
		PeakLevel:     s.peak,
		Since:         s.levelSince,
		Escalations:   s.escalations,
		Deescalations: s.deescalations,
		Migrations:    s.migrations,
		Actions:       append(append([]Action(nil), s.actions[s.head:]...), s.actions[:s.head]...),
	}
}

// Stats is a programmatic snapshot of the engine counters.
type Stats struct {
	Sessions        int
	Mitigated       int
	Events          uint64
	Throttles       uint64
	BandwidthLimits uint64
	Partitions      uint64
	Releases        uint64
	Migrations      uint64
	Escalations     uint64
	Deescalations   uint64
	Overrides       uint64
	ActuatorErrors  uint64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	n, mit := len(e.sessions), e.mitigatedLocked()
	e.mu.Unlock()
	return Stats{
		Sessions:        n,
		Mitigated:       mit,
		Events:          e.events.Value(),
		Throttles:       e.throttles.Value(),
		BandwidthLimits: e.bwLimits.Value(),
		Partitions:      e.partitions.Value(),
		Releases:        e.releases.Value(),
		Migrations:      e.migrations.Value(),
		Escalations:     e.escalations.Value(),
		Deescalations:   e.deescalations.Value(),
		Overrides:       e.overrides.Value(),
		ActuatorErrors:  e.actuatorErrors.Value(),
	}
}

// mitigatedLocked counts the sessions above idle. Caller holds e.mu.
func (e *Engine) mitigatedLocked() int {
	n := 0
	for _, s := range e.sessions {
		if s.level > 0 {
			n++
		}
	}
	return n
}

// RegisterMetrics exposes the engine counters and per-session levels on
// a metrics registry (the /metrics endpoint).
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("memdos_respond_events_total",
		"Alarm transitions observed by the respond engine.", &e.events)
	reg.RegisterCounter("memdos_respond_throttle_actions_total",
		"Suspect-VM throttle actions applied.", &e.throttles)
	reg.RegisterCounter("memdos_respond_bandwidth_actions_total",
		"DRAM bandwidth-budget applications and clears.", &e.bwLimits)
	reg.RegisterCounter("memdos_respond_partition_actions_total",
		"Cache partition toggles applied.", &e.partitions)
	reg.RegisterCounter("memdos_respond_release_actions_total",
		"Full mitigation releases applied.", &e.releases)
	reg.RegisterCounter("memdos_respond_migrations_total",
		"Victim migrations triggered.", &e.migrations)
	reg.RegisterCounter("memdos_respond_escalations_total",
		"Ladder escalations.", &e.escalations)
	reg.RegisterCounter("memdos_respond_deescalations_total",
		"Ladder de-escalations.", &e.deescalations)
	reg.RegisterCounter("memdos_respond_overrides_total",
		"Operator pause/force/resume overrides.", &e.overrides)
	reg.RegisterCounter("memdos_respond_actuator_errors_total",
		"Actuator invocations that returned an error.", &e.actuatorErrors)
	reg.RegisterCounter("memdos_respond_events_suppressed_total",
		"Raises ignored because the session was paused or forced.", &e.eventsSuppressed)
	reg.RegisterGaugeFunc("memdos_respond_mitigated_sessions",
		"Sessions with active mitigation (level > 0).", func() []metrics.Point {
			e.mu.Lock()
			n := e.mitigatedLocked()
			e.mu.Unlock()
			return []metrics.Point{{Value: float64(n)}}
		})
	reg.RegisterGaugeFunc("memdos_respond_level",
		"Current mitigation ladder rung, per session.", func() []metrics.Point {
			e.mu.Lock()
			pts := make([]metrics.Point, 0, len(e.sessions))
			for _, s := range e.sessions {
				pts = append(pts, metrics.Point{Labels: fmt.Sprintf("session=%q", s.name), Value: float64(s.level)})
			}
			e.mu.Unlock()
			return pts
		})
}
