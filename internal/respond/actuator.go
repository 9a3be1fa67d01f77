package respond

import "sync"

// Actuator applies mitigation to the hypervisor. The engine addresses
// actions by *detection session* (one session protects one VM); the
// actuator is responsible for resolving the session to the concrete
// suspect VM(s) — in the simulation experiments that mapping is exact
// (the co-located attack VM), on a real hypervisor it would come from
// per-VM counter attribution.
//
// Calls happen with the engine lock held, in deterministic order, and
// must not call back into the engine. Implementations should be fast;
// a slow actuator delays alarm processing.
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

// Applied is the mitigation state a LogActuator currently holds for one
// session.
type Applied struct {
	Duty float64 `json:"duty"`
	// BandwidthLimit is the recorded DRAM budget in bytes/second
	// (0 = no cap).
	BandwidthLimit float64 `json:"bandwidth_limit,omitempty"`
	Partition      bool    `json:"partition"`
	Migrations     int     `json:"migrations"`
	// LastDest is the destination reported for the most recent migration
	// (always empty for LogActuator itself, which has no host notion, but
	// kept in the record so mixed deployments serialize uniformly).
	LastDest string `json:"last_dest,omitempty"`
}

// LogActuator is an Actuator for deployments without a hypervisor
// hookup (e.g. memdosd run stand-alone): it records the mitigation it
// was asked to apply so operators and tests can inspect the would-be
// actions. All methods are safe for concurrent use and never fail.
type LogActuator struct {
	mu sync.Mutex
	// state is the per-session record of applied actions. guarded by mu.
	state map[string]Applied
}

// NewLogActuator returns an empty recording actuator.
func NewLogActuator() *LogActuator {
	return &LogActuator{state: make(map[string]Applied)}
}

// update applies f to the session's record under the lock.
func (l *LogActuator) update(session string, f func(*Applied)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state[session]
	f(&st)
	l.state[session] = st
}

// Throttle records the duty.
func (l *LogActuator) Throttle(session string, duty float64) error {
	l.update(session, func(st *Applied) { st.Duty = duty })
	return nil
}

// LimitBandwidth records the DRAM budget.
func (l *LogActuator) LimitBandwidth(session string, bytesPerSec float64) error {
	l.update(session, func(st *Applied) { st.BandwidthLimit = bytesPerSec })
	return nil
}

// Partition records the partition state.
func (l *LogActuator) Partition(session string, on bool) error {
	l.update(session, func(st *Applied) { st.Partition = on })
	return nil
}

// Migrate counts the migration. LogActuator has no host notion, so the
// reported destination is empty.
func (l *LogActuator) Migrate(session string) (MigrateResult, error) {
	l.update(session, func(st *Applied) {
		st.Migrations++
		st.LastDest = ""
	})
	return MigrateResult{}, nil
}

// Applied returns the currently recorded mitigation for the session.
func (l *LogActuator) Applied(session string) Applied {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state[session]
}
