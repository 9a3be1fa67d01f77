package respond

// Actuator applies mitigation to the hypervisor. The engine addresses
// actions by *detection session* (one session protects one VM); the
// actuator is responsible for resolving the session to the concrete
// suspect VM(s) — in the simulation experiments that mapping is exact
// (the co-located attack VM), on a real hypervisor it would come from
// per-VM counter attribution.
//
// Calls happen with the engine lock held, in deterministic order, and
// must not call back into the engine. When the engine observes a
// stream.Hub (Attach), calls also run on the hub's shard goroutine with
// hub locks held, so they must not call back into the hub either.
// Implementations should be fast; a slow actuator delays detection on
// the shard that raised the alarm.
type Actuator interface {
	// Throttle caps the suspect VM's execution to (1-duty) of its share.
	// duty 0 clears the throttle.
	Throttle(session string, duty float64) error
	// LimitBandwidth caps the suspect VM's delivered DRAM bandwidth at
	// bytesPerSec — the MemGuard-style budget of Zhang et al.
	// (arXiv:1603.03404). bytesPerSec 0 clears the cap. Actuators on
	// hosts without a memory-controller model report an error, which the
	// engine records in the action log and keeps climbing past.
	LimitBandwidth(session string, bytesPerSec float64) error
	// Partition toggles pseudo cache-partitioning around the suspect VM,
	// containing its LLC evictions (no effect on bus locking).
	Partition(session string, on bool) error
	// Migrate moves the protected VM to another host and reports where
	// it landed. One-shot per episode: the engine releases all local
	// mitigation afterwards.
	Migrate(session string) (MigrateResult, error)
}

// MigrateResult describes the outcome of an Actuator.Migrate call.
type MigrateResult struct {
	// Dest names the destination host the protected VM was moved to
	// (e.g. "host07"). Empty when the actuator has no host notion, such
	// as the stand-alone LogActuator.
	Dest string `json:"dest,omitempty"`
}

// LogActuator is the Actuator for deployments without a hypervisor
// hookup (e.g. memdosd run stand-alone): it accepts every action and does
// nothing. The would-be actions are not lost — the engine records each
// one in the session's action log (SessionState.Actions, served at
// /v1/responses), which is where operators and tests inspect them.
type LogActuator struct{}

// NewLogActuator returns the no-op actuator.
func NewLogActuator() *LogActuator { return &LogActuator{} }

// Throttle accepts the duty.
func (*LogActuator) Throttle(string, float64) error { return nil }

// LimitBandwidth accepts the DRAM budget.
func (*LogActuator) LimitBandwidth(string, float64) error { return nil }

// Partition accepts the partition state.
func (*LogActuator) Partition(string, bool) error { return nil }

// Migrate accepts the migration. LogActuator has no host notion, so the
// reported destination is empty.
func (*LogActuator) Migrate(string) (MigrateResult, error) { return MigrateResult{}, nil }
