package cluster

import (
	"fmt"

	"memdos/internal/respond"
	"memdos/internal/vmm"
)

// actuator maps the respond engine's session-addressed actions onto the
// cluster. A session is a victim VM name; throttle and partition resolve
// to the attack VMs currently co-resident with that victim (exact suspect
// resolution, as in the single-host studies — a real hypervisor would
// attribute suspects from per-VM counters), and migrate performs a real
// cluster migration of the victim to a scheduler-chosen host.
//
// Applied mitigation is recorded per session as concrete (host, vm)
// pairs, so a release issued after the victim migrated away still undoes
// the throttles on the *old* host — resolving the release against the
// victim's new (clean) host would strand the old host's attackers
// throttled forever. When two victims on one host throttle the same
// attacker the last writer wins, and either session's release clears it;
// the graduated ladder re-raises within seconds if contention persists.
//
// All methods run on the serial control plane (the engine is only ever
// driven from Cluster.Step), so no locking is needed.
type actuator struct {
	c *Cluster
	// applied records the mitigation each session currently holds.
	applied map[string][]appliedEntry
}

// mitKind distinguishes the concrete mitigation an appliedEntry records.
type mitKind int

const (
	mitThrottle mitKind = iota
	mitBandwidth
	mitPartition
)

// appliedEntry is one concrete mitigation applied on behalf of a session.
type appliedEntry struct {
	host int
	id   vmm.VMID
	kind mitKind
}

// suspects returns the attack VMs co-resident with the session's victim,
// in record order. Empty while the victim is in transit.
func (a *actuator) suspects(session string) ([]appliedEntry, error) {
	rec, ok := a.c.byName[session]
	if !ok {
		return nil, fmt.Errorf("cluster: no VM for session %q", session)
	}
	if rec.inTransit {
		return nil, nil
	}
	var out []appliedEntry
	for _, r := range a.c.recs {
		if r.kind == kindAttacker && !r.inTransit && r.host == rec.host {
			out = append(out, appliedEntry{host: r.host, id: r.id})
		}
	}
	return out, nil
}

// undo releases the session's recorded mitigation of the given kind on
// whatever host it was applied. Departed husk slots accept the release
// as a no-op, so an attacker that churned away meanwhile is harmless.
func (a *actuator) undo(session string, kind mitKind) error {
	kept := a.applied[session][:0]
	for _, e := range a.applied[session] {
		if e.kind != kind {
			kept = append(kept, e)
			continue
		}
		srv := a.c.hosts[e.host].srv
		var err error
		switch kind {
		case mitPartition:
			err = srv.SetCachePartition(e.id, false)
		case mitBandwidth:
			err = srv.SetMemBandwidthLimit(e.id, 0)
		default:
			err = srv.SetExecThrottle(e.id, 0)
		}
		if err != nil {
			return err
		}
	}
	a.applied[session] = kept
	return nil
}

// apply is the one body behind Throttle, LimitBandwidth and Partition.
// It first releases what the session holds of this kind — a rung change
// re-resolves suspects, and undoing the old entries first means an
// attacker that moved since is not left behind at a stale setting — then,
// when on, applies set to each suspect co-resident with the session's
// victim and records the (host, vm) pair.
func (a *actuator) apply(session string, kind mitKind, on bool, set func(*vmm.Server, vmm.VMID) error) error {
	if a.applied == nil {
		a.applied = make(map[string][]appliedEntry)
	}
	if err := a.undo(session, kind); err != nil {
		return err
	}
	if !on {
		return nil
	}
	sus, err := a.suspects(session)
	if err != nil {
		return err
	}
	for _, e := range sus {
		e.kind = kind
		if err := set(a.c.hosts[e.host].srv, e.id); err != nil {
			return err
		}
		a.applied[session] = append(a.applied[session], e)
	}
	return nil
}

// Throttle applies (or with duty 0 releases) the execution throttle on
// the suspects co-resident with the session's victim.
func (a *actuator) Throttle(session string, duty float64) error {
	return a.apply(session, mitThrottle, duty > 0, func(srv *vmm.Server, id vmm.VMID) error {
		return srv.SetExecThrottle(id, duty)
	})
}

// LimitBandwidth applies (or with 0 releases) a MemGuard-style DRAM
// bandwidth budget on the suspects co-resident with the session's
// victim. On a cluster whose hosts run without a memory-controller model
// the underlying call fails and the engine logs the error and keeps
// climbing the ladder.
func (a *actuator) LimitBandwidth(session string, bytesPerSec float64) error {
	return a.apply(session, mitBandwidth, bytesPerSec > 0, func(srv *vmm.Server, id vmm.VMID) error {
		return srv.SetMemBandwidthLimit(id, bytesPerSec)
	})
}

// Partition toggles pseudo cache-partitioning around the suspects
// co-resident with the session's victim.
func (a *actuator) Partition(session string, on bool) error {
	return a.apply(session, mitPartition, on, func(srv *vmm.Server, id vmm.VMID) error {
		return srv.SetCachePartition(id, true)
	})
}

// Migrate drains the session's victim to a scheduler-chosen clean host
// and reports the destination. The engine releases the session's local
// mitigation right after this returns; the recorded (host, vm) pairs
// make that release land on the host the victim just left.
func (a *actuator) Migrate(session string) (respond.MigrateResult, error) {
	dest, err := a.c.MigrateVM(session)
	if err != nil {
		return respond.MigrateResult{}, err
	}
	return respond.MigrateResult{Dest: dest}, nil
}
