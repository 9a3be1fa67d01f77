// Package mem models the DRAM memory controllers that sit behind the
// shared LLC: cache misses become line-sized DRAM requests routed to the
// per-channel queues of the owner's home socket (and, for NUMA-remote
// pages, across the socket interconnect), where row-buffer locality,
// bounded per-channel bandwidth and fair-share arbitration decide how
// fast they complete.
//
// The model exists because memory DoS does not stop at the cache: Bechtel
// & Yun (arXiv:2005.10864) show a DRAM bandwidth hog is at least as
// damaging as cache-level contention while barely moving LLC-centric
// counters, and Zhang et al. (arXiv:1603.03404) locate both the damage
// and the effective mitigation (MemGuard-style per-VM bandwidth budgets)
// at the memory controller.
//
// Like internal/bus, the controller is a per-step arbiter: components
// accumulate byte demands during a step, Resolve(dt) arbitrates them and
// returns a reused-scratch view of what each owner received and at what
// average per-line latency. The model is deterministic and allocation
// free in steady state.
//
// # Arbitration model
//
// Requests interleave line addresses evenly across the channels of one
// socket, so the per-channel demand composition equals the socket-group
// composition and the group can be arbitrated as one pool of
// ChannelsPerSocket x ChannelBandwidth (this symmetry is exact for the
// even-interleaving assumption and keeps Resolve closed-form).
//
// Row-buffer interference: an owner that has the channel to itself keeps
// its intrinsic row-buffer hit fraction. Requests collide with another
// tenant's stream with probability interf = utilization x (1 - share):
// at idle channels streams rarely interleave regardless of tenant count,
// while on a saturated channel an owner keeps only its demand share of
// its locality (effHit = hit x (1 - interf)), and the colliding fraction
// of its misses are row conflicts rather than plain misses. A streaming
// hog therefore keeps its own locality while destroying everyone else's
// — the asymmetry that makes bandwidth DoS effective.
//
// NUMA: each owner has a home socket; a configurable fraction of its
// traffic targets remotely-homed pages, paying the remote latency factor,
// consuming channel time at 1/RemoteBandwidthFactor per line, and passing
// through the bounded socket interconnect first.
//
// MemGuard budgets: a per-owner bytes/second cap is applied to the
// owner's demand before fair-share arbitration — the reversible
// mitigation primitive the respond ladder's bandwidth rung actuates.
package mem

import (
	"fmt"
	"slices"
)

// Owner identifies a memory-controller client (a VM id); it matches
// bus.Owner and cache.Owner numerically but is declared separately so the
// packages stay decoupled.
type Owner int32

// NUMAConfig describes the socket/channel topology and its timing.
type NUMAConfig struct {
	// Sockets is the number of NUMA nodes (>= 1).
	Sockets int
	// ChannelsPerSocket is the number of DRAM channels per socket (>= 1).
	ChannelsPerSocket int
	// ChannelBandwidth is one channel's peak bandwidth in bytes per
	// simulated second.
	ChannelBandwidth float64
	// LineBytes is the size of one DRAM request (a cache line).
	LineBytes float64
	// RowHitLatency / RowMissLatency / RowConflictLatency are the
	// per-request service latencies in seconds for an open-row hit, a
	// closed-row miss (activate + access) and a row conflict
	// (precharge + activate + access). Must be ascending.
	RowHitLatency      float64
	RowMissLatency     float64
	RowConflictLatency float64
	// RemoteLatencyFactor multiplies the latency of requests served by a
	// non-home socket (>= 1).
	RemoteLatencyFactor float64
	// RemoteBandwidthFactor is the channel-time efficiency of remote
	// requests in (0, 1]: one remote line occupies 1/factor line-slots of
	// the serving socket's channels.
	RemoteBandwidthFactor float64
	// InterSocketBandwidth caps the total remote traffic *into* each
	// socket in bytes per second (the QPI/UPI link). <= 0 means unbounded.
	// Ignored with one socket.
	InterSocketBandwidth float64
}

// DefaultNUMAConfig returns a topology loosely modelled on a two-channel
// DDR4 socket: 12.8 GB/s per channel, 15/45/75 ns row hit/miss/conflict,
// and a one-channel-wide interconnect with a 1.6x remote latency penalty.
func DefaultNUMAConfig(sockets int) NUMAConfig {
	return NUMAConfig{
		Sockets:               sockets,
		ChannelsPerSocket:     2,
		ChannelBandwidth:      12.8e9,
		LineBytes:             64,
		RowHitLatency:         15e-9,
		RowMissLatency:        45e-9,
		RowConflictLatency:    75e-9,
		RemoteLatencyFactor:   1.6,
		RemoteBandwidthFactor: 0.6,
		InterSocketBandwidth:  12.8e9,
	}
}

// Validate checks the topology.
func (c NUMAConfig) Validate() error {
	if c.Sockets < 1 {
		return fmt.Errorf("mem: need >= 1 socket, got %d", c.Sockets)
	}
	if c.ChannelsPerSocket < 1 {
		return fmt.Errorf("mem: need >= 1 channel per socket, got %d", c.ChannelsPerSocket)
	}
	if c.ChannelBandwidth <= 0 {
		return fmt.Errorf("mem: non-positive channel bandwidth %v", c.ChannelBandwidth)
	}
	if c.LineBytes <= 0 {
		return fmt.Errorf("mem: non-positive line size %v", c.LineBytes)
	}
	if c.RowHitLatency <= 0 || c.RowMissLatency < c.RowHitLatency || c.RowConflictLatency < c.RowMissLatency {
		return fmt.Errorf("mem: row latencies must be ascending positive, got %v/%v/%v",
			c.RowHitLatency, c.RowMissLatency, c.RowConflictLatency)
	}
	if c.RemoteLatencyFactor < 1 {
		return fmt.Errorf("mem: remote latency factor %v < 1", c.RemoteLatencyFactor)
	}
	if c.RemoteBandwidthFactor <= 0 || c.RemoteBandwidthFactor > 1 {
		return fmt.Errorf("mem: remote bandwidth factor %v outside (0,1]", c.RemoteBandwidthFactor)
	}
	return nil
}

// BaselineLatency returns the per-line latency an owner with the given
// intrinsic row-buffer hit fraction sees on an otherwise idle local
// socket — the reference point contention stalls are measured against.
func (c NUMAConfig) BaselineLatency(rowHitFrac float64) float64 {
	return rowHitFrac*c.RowHitLatency + (1-rowHitFrac)*c.RowMissLatency
}

// SocketCapacity returns one socket group's line capacity per simulated
// second.
func (c NUMAConfig) SocketCapacity() float64 {
	return float64(c.ChannelsPerSocket) * c.ChannelBandwidth / c.LineBytes
}

// Stats accumulates per-owner delivered traffic and latency.
type Stats struct {
	// Requested / Delivered are line counts (after budget clamping for
	// Delivered's denominator semantics, see DeliveryRatio).
	Requested float64
	Delivered float64
	// Bytes is the delivered traffic in bytes.
	Bytes float64
	// LatencySum is the delivered-line-weighted total latency in seconds;
	// LatencySum/Delivered is the average per-line latency.
	LatencySum float64
}

// DeliveryRatio returns Delivered/Requested, or 1 when nothing was
// requested (an idle client is not considered throttled).
func (s Stats) DeliveryRatio() float64 {
	if s.Requested == 0 {
		return 1
	}
	return s.Delivered / s.Requested
}

// AvgLatency returns the average per-line latency in seconds, or 0 when
// nothing was delivered.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return s.LatencySum / s.Delivered
}

// Resolution is the per-owner outcome of one Resolve. It is a view over
// the controller's per-owner state: valid until the next Resolve call,
// which is the lifetime every per-step caller needs. Owners that
// requested nothing, and released owners, read as zero (ratio 1).
type Resolution struct {
	own []owner
}

// LinesOf returns the DRAM lines delivered to owner this step.
func (r Resolution) LinesOf(o Owner) float64 {
	if o >= 0 && int(o) < len(r.own) {
		return r.own[o].resLines
	}
	return 0
}

// RatioOf returns delivered/requested lines for owner this step (1 when
// the owner requested nothing).
func (r Resolution) RatioOf(o Owner) float64 {
	if o < 0 || int(o) >= len(r.own) || r.own[o].resReq == 0 {
		return 1
	}
	return r.own[o].resLines / r.own[o].resReq
}

// LatencyOf returns owner's average per-line latency this step in
// seconds, or 0 when nothing was delivered.
func (r Resolution) LatencyOf(o Owner) float64 {
	if o < 0 || int(o) >= len(r.own) || r.own[o].resLines == 0 {
		return 0
	}
	return r.own[o].resLat / r.own[o].resLines
}

// LatencySumOf returns owner's delivered-line-weighted latency total this
// step in seconds.
func (r Resolution) LatencySumOf(o Owner) float64 {
	if o >= 0 && int(o) < len(r.own) {
		return r.own[o].resLat
	}
	return 0
}

// owner is one client's configuration, pending demand, last outcome and
// Resolve scratch.
type owner struct {
	// registered marks an owner on the controller's owner list.
	registered bool
	home       int32   // home socket
	remoteFrac float64 // fraction of traffic on remotely-homed pages
	budget     float64 // MemGuard cap in bytes/second (0 = unlimited)

	// Per-step demand, cleared by Resolve.
	reqLines float64 // lines wanted this step (pre-budget)
	hitSum   float64 // rowHitFrac x lines, for the demand-weighted mean

	// The last Resolve's outcome, read through Resolution.
	resReq, resLines, resLat float64

	// Resolve scratch: budget-clamped lines, then the owner's flow on the
	// socket under arbitration in lines and in channel-time units, and
	// the units waterfill granted it.
	capped, sockLines, sockUnits, grant float64

	stats Stats
}

// Controller is the multi-socket memory-controller arbiter. It is not
// safe for concurrent use.
//
// Per-owner state lives in a dense slice indexed by Owner (owners are
// small VM ids), mirroring internal/bus. Resolve walks only the owner
// list — the owners touched since their last Release, in ascending order
// — so a released owner (a migrated VM's husk) costs nothing per step.
// Resolve runs once per simulation step and must not allocate in steady
// state.
type Controller struct {
	cfg    NUMAConfig
	own    []owner
	owners []Owner
}

// New returns a controller for the topology.
func New(cfg NUMAConfig) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// MustNew is New but panics on invalid configuration.
func MustNew(cfg NUMAConfig) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's topology.
func (c *Controller) Config() NUMAConfig { return c.cfg }

// touch returns owner o's state, first putting o on the owner list if it
// is not registered.
func (c *Controller) touch(o Owner) *owner {
	if o >= 0 && int(o) < len(c.own) && c.own[o].registered {
		return &c.own[o]
	}
	if o < 0 {
		panic(fmt.Sprintf("mem: invalid owner %d", o))
	}
	for len(c.own) <= int(o) {
		c.own = append(c.own, owner{})
	}
	c.own[o].registered = true
	i, _ := slices.BinarySearch(c.owners, o)
	c.owners = slices.Insert(c.owners, i, o)
	return &c.own[o]
}

// Release takes owner o off the owner list: Resolve stops visiting it,
// its pending demand is dropped, and its Resolution entries read as an
// idle owner's (0 lines, ratio 1, latency 0). Its home, remote fraction,
// budget and stats are kept; the next Request or setter registers it
// again. Releasing an unregistered owner is a no-op.
func (c *Controller) Release(o Owner) {
	if o < 0 || int(o) >= len(c.own) || !c.own[o].registered {
		return
	}
	st := &c.own[o]
	st.registered = false
	st.reqLines, st.hitSum = 0, 0
	st.resReq, st.resLines, st.resLat = 0, 0, 0
	i, _ := slices.BinarySearch(c.owners, o)
	c.owners = slices.Delete(c.owners, i, i+1)
}

// SetHome assigns the owner's home socket (NUMA affinity). New owners
// default to socket 0.
func (c *Controller) SetHome(o Owner, socket int) error {
	if socket < 0 || socket >= c.cfg.Sockets {
		return fmt.Errorf("mem: socket %d outside [0,%d)", socket, c.cfg.Sockets)
	}
	c.touch(o).home = int32(socket)
	return nil
}

// Home returns the owner's home socket.
func (c *Controller) Home(o Owner) int {
	if o >= 0 && int(o) < len(c.own) {
		return int(c.own[o].home)
	}
	return 0
}

// SetRemoteFraction declares what fraction of the owner's traffic targets
// remotely-homed pages (split evenly across the other sockets). Ignored
// on single-socket topologies.
func (c *Controller) SetRemoteFraction(o Owner, frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("mem: remote fraction %v outside [0,1]", frac)
	}
	c.touch(o).remoteFrac = frac
	return nil
}

// SetBudget applies a MemGuard-style delivered-bandwidth cap to the owner
// in bytes per simulated second; 0 clears the cap. The cap clamps the
// owner's demand before fair-share arbitration, so a capped hog stops
// crowding the channel rather than merely receiving less.
func (c *Controller) SetBudget(o Owner, bytesPerSec float64) error {
	if bytesPerSec < 0 {
		return fmt.Errorf("mem: negative bandwidth budget %v", bytesPerSec)
	}
	c.touch(o).budget = bytesPerSec
	return nil
}

// Budget returns the owner's bandwidth budget (0 = unlimited).
func (c *Controller) Budget(o Owner) float64 {
	if o >= 0 && int(o) < len(c.own) {
		return c.own[o].budget
	}
	return 0
}

// Request records that owner wants to transfer n bytes of DRAM traffic
// this step, with the given intrinsic row-buffer hit fraction (the
// locality its stream achieves on an idle channel: ~0.9+ for sequential
// streaming, lower for pointer-chasing). Calls accumulate; the hit
// fraction is demand-weighted across calls.
func (c *Controller) Request(o Owner, bytes, rowHitFrac float64) {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative byte request %v", bytes))
	}
	if rowHitFrac < 0 || rowHitFrac > 1 {
		panic(fmt.Sprintf("mem: row-hit fraction %v outside [0,1]", rowHitFrac))
	}
	// Every step's request from a registered owner updates its slot in
	// place; only registration goes through touch, which is not inlined.
	var st *owner
	if o >= 0 && int(o) < len(c.own) && c.own[o].registered {
		st = &c.own[o]
	} else {
		st = c.touch(o)
	}
	lines := bytes / c.cfg.LineBytes
	st.reqLines += lines
	st.hitSum += rowHitFrac * lines
}

// Resolve arbitrates the current step of length dt seconds and returns
// the per-owner delivered lines and average latency. Request state is
// cleared for the next step; the returned view is valid until the next
// Resolve.
//
// Arbitration order: per-owner MemGuard budgets clamp demand; remote
// flows into each socket are scaled down to the interconnect cap; each
// socket group then max-min fair-shares its channel-time among the flows
// it serves. Latencies come from the post-budget demand composition
// (row-buffer interference + congestion), so they are identical at any
// caller-side sharding of the same demand.
//
// Every pass walks the owner list in ascending order, so each sum adds
// the same terms in the same order as a pass over every owner slot
// would (an unlisted owner only ever contributed exact zeros): results
// do not depend on how many owners were released.
//
//memdos:hotpath
func (c *Controller) Resolve(dt float64) Resolution {
	if dt <= 0 {
		panic(fmt.Sprintf("mem: non-positive step %v", dt))
	}
	sockets := c.cfg.Sockets
	capUnits := c.cfg.SocketCapacity() * dt
	interCap := 0.0
	if sockets > 1 && c.cfg.InterSocketBandwidth > 0 {
		interCap = c.cfg.InterSocketBandwidth * dt / c.cfg.LineBytes
	}

	for s := 0; s < sockets; s++ {
		// One pass gathers this socket's flows. On the first socket it
		// also applies the budget clamp: a MemGuard cap bounds the lines
		// an owner may move this step before any of its demand reaches a
		// channel. A local flow's units are its lines, so the local flows
		// settle total, the unit demand and waterfill's active count here;
		// a remote flow waits for the interconnect scale.
		var remoteTotal, total float64
		active, remote := 0, false
		for _, o := range c.owners {
			st := &c.own[o]
			if s == 0 {
				st.resLines, st.resLat = 0, 0
				st.resReq = st.reqLines
				st.capped = st.reqLines
				if b := st.budget; b > 0 {
					if lim := b * dt / c.cfg.LineBytes; st.capped > lim {
						st.capped = lim
					}
				}
			}
			st.sockLines, st.sockUnits = 0, 0
			lines := st.capped
			if lines == 0 { // sparsity fast path: skip idle owners
				continue
			}
			r := st.remoteFrac
			if sockets == 1 {
				r = 0
			}
			if int(st.home) == s {
				st.sockLines = lines * (1 - r)
				st.sockUnits = st.sockLines
				total += st.sockLines
				if st.sockUnits > 0 {
					active++
				}
			} else {
				st.sockLines = lines * r / float64(sockets-1)
				remoteTotal += st.sockLines
				remote = remote || st.sockLines > 0
			}
		}
		// With only local flows every unit is a line, so the unit demand
		// is total, summed in the same order.
		demand := total
		if remote {
			// Interconnect cap: remote flows into this socket scale down
			// proportionally; the capped-out portion never reaches a
			// channel. The sums restart so local and remote terms add in
			// owner order.
			remScale := 1.0
			if interCap > 0 && remoteTotal > interCap {
				remScale = interCap / remoteTotal
			}
			total, demand, active = 0, 0, 0
			for _, o := range c.owners {
				st := &c.own[o]
				if st.sockLines == 0 { // sparsity fast path: skip idle owners
					continue
				}
				if int(st.home) != s {
					st.sockLines *= remScale
					st.sockUnits = st.sockLines / c.cfg.RemoteBandwidthFactor
				}
				total += st.sockLines
				demand += st.sockUnits
				if st.sockUnits > 0 {
					active++
				}
			}
		}
		if total == 0 { // the socket is idle this step
			continue
		}
		fits := demand <= capUnits
		if !fits {
			c.waterfill(capUnits, demand, active)
		}

		// Demand-composition latency: collisions with other tenants'
		// streams decide row-buffer survival (scaled by utilization, so
		// idle channels don't interfere); congestion stretches everything.
		congestion := 1.0
		util := 1.0
		if capUnits > 0 {
			if demand > capUnits {
				congestion = demand / capUnits
			} else {
				util = demand / capUnits
			}
		}
		for _, o := range c.owners {
			st := &c.own[o]
			if st.sockUnits == 0 { // sparsity fast path: skip idle owners
				continue
			}
			// When demand fits, every flow is granted in full.
			grantedLines := st.grant
			if fits {
				grantedLines = st.sockUnits
			}
			if int(st.home) != s {
				grantedLines *= c.cfg.RemoteBandwidthFactor
			}
			share := st.sockLines / total
			hit := 0.0
			if st.capped > 0 && st.reqLines > 0 {
				hit = st.hitSum / st.reqLines
			}
			interf := util * (1 - share)
			effHit := hit * (1 - interf)
			lat := effHit*c.cfg.RowHitLatency +
				(1-effHit)*((1-interf)*c.cfg.RowMissLatency+interf*c.cfg.RowConflictLatency)
			lat *= congestion
			if int(st.home) != s {
				lat *= c.cfg.RemoteLatencyFactor
			}
			st.resLines += grantedLines
			st.resLat += lat * grantedLines
		}
	}

	for _, o := range c.owners {
		st := &c.own[o]
		st.stats.Requested += st.reqLines
		st.stats.Delivered += st.resLines
		st.stats.Bytes += st.resLines * c.cfg.LineBytes
		st.stats.LatencySum += st.resLat
		st.reqLines, st.hitSum = 0, 0
	}
	return Resolution{own: c.own}
}

// waterfill max-min fair-shares capUnits of channel time among the
// owners' unit demands (sockUnits), whose sum over the active flows is
// demand, writing each owner's grant. Exact max-min: repeatedly satisfy
// every flow below the current fair share in full, then split what
// remains evenly. Deterministic in owner order; terminates in at most
// len(owners) rounds.
func (c *Controller) waterfill(capUnits, demand float64, active int) {
	remaining := capUnits
	for _, o := range c.owners {
		c.own[o].grant = 0
	}
	for active > 0 {
		if demand <= remaining {
			for _, o := range c.owners {
				if st := &c.own[o]; st.sockUnits > 0 && st.grant == 0 { // grant is exactly 0 until assigned below
					st.grant = st.sockUnits
				}
			}
			return
		}
		fair := remaining / float64(active)
		progressed := false
		for _, o := range c.owners {
			st := &c.own[o]
			if d := st.sockUnits; d > 0 && st.grant == 0 && d <= fair { // grant is exactly 0 until assigned
				st.grant = d
				remaining -= d
				demand -= d
				active--
				progressed = true
			}
		}
		if !progressed {
			for _, o := range c.owners {
				if st := &c.own[o]; st.sockUnits > 0 && st.grant == 0 { // grant is exactly 0 until assigned
					st.grant = fair
				}
			}
			return
		}
	}
}

// Stats returns a copy of the accumulated statistics for owner.
func (c *Controller) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(c.own) {
		return c.own[o].stats
	}
	return Stats{}
}

// ResetStats zeroes the accumulated statistics.
func (c *Controller) ResetStats() {
	for i := range c.own {
		c.own[i].stats = Stats{}
	}
}
