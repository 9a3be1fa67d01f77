package mem

import "fmt"

// refController is the package's original arbiter, kept as the reference
// the owner-list Resolve must reproduce bit for bit: every per-owner
// slice is dense over 0..n, and Resolve makes a separate pass over every
// slot for the budget clamp, each socket's gather, remote scaling,
// waterfill, the demand sum, latency, stats and the request clear.
// Released owners have no counterpart here: an owner that requests
// nothing contributes exact zeros, which is what Release relies on.
type refController struct {
	cfg NUMAConfig

	homes      []int32
	remoteFrac []float64
	budgets    []float64

	reqLines []float64
	hitSum   []float64

	stats []Stats

	capped   []float64
	resReq   []float64
	resLines []float64
	resLat   []float64

	sockLines []float64
	sockUnits []float64
	grant     []float64
}

// refResolution is the original dense Resolution view.
type refResolution struct {
	req, lines, latSum []float64
}

func (r refResolution) LinesOf(o Owner) float64 {
	if o >= 0 && int(o) < len(r.lines) {
		return r.lines[o]
	}
	return 0
}

func (r refResolution) RatioOf(o Owner) float64 {
	if o < 0 || int(o) >= len(r.req) || r.req[o] == 0 {
		return 1
	}
	return r.lines[o] / r.req[o]
}

func (r refResolution) LatencyOf(o Owner) float64 {
	if o < 0 || int(o) >= len(r.lines) || r.lines[o] == 0 {
		return 0
	}
	return r.latSum[o] / r.lines[o]
}

func (r refResolution) LatencySumOf(o Owner) float64 {
	if o >= 0 && int(o) < len(r.latSum) {
		return r.latSum[o]
	}
	return 0
}

func newRef(cfg NUMAConfig) *refController { return &refController{cfg: cfg} }

func grow(s []float64, n int) []float64 {
	for len(s) <= n {
		s = append(s, 0)
	}
	return s
}

func (c *refController) touch(o Owner) {
	if o < 0 {
		panic(fmt.Sprintf("mem: invalid owner %d", o))
	}
	for len(c.homes) <= int(o) {
		c.homes = append(c.homes, 0)
	}
	c.remoteFrac = grow(c.remoteFrac, int(o))
	c.budgets = grow(c.budgets, int(o))
	c.reqLines = grow(c.reqLines, int(o))
	c.hitSum = grow(c.hitSum, int(o))
}

func (c *refController) SetHome(o Owner, socket int) error {
	if socket < 0 || socket >= c.cfg.Sockets {
		return fmt.Errorf("mem: socket %d outside [0,%d)", socket, c.cfg.Sockets)
	}
	c.touch(o)
	c.homes[o] = int32(socket)
	return nil
}

func (c *refController) SetRemoteFraction(o Owner, frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("mem: remote fraction %v outside [0,1]", frac)
	}
	c.touch(o)
	c.remoteFrac[o] = frac
	return nil
}

func (c *refController) SetBudget(o Owner, bytesPerSec float64) error {
	if bytesPerSec < 0 {
		return fmt.Errorf("mem: negative bandwidth budget %v", bytesPerSec)
	}
	c.touch(o)
	c.budgets[o] = bytesPerSec
	return nil
}

func (c *refController) Request(o Owner, bytes, rowHitFrac float64) {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative byte request %v", bytes))
	}
	if rowHitFrac < 0 || rowHitFrac > 1 {
		panic(fmt.Sprintf("mem: row-hit fraction %v outside [0,1]", rowHitFrac))
	}
	c.touch(o)
	lines := bytes / c.cfg.LineBytes
	c.reqLines[o] += lines
	c.hitSum[o] += rowHitFrac * lines
}

func (c *refController) Resolve(dt float64) refResolution {
	if dt <= 0 {
		panic(fmt.Sprintf("mem: non-positive step %v", dt))
	}
	n := len(c.reqLines)
	c.capped = growTo(c.capped, n)
	c.resReq = growTo(c.resReq, n)
	c.resLines = growTo(c.resLines, n)
	c.resLat = growTo(c.resLat, n)
	c.sockLines = growTo(c.sockLines, n)
	c.sockUnits = growTo(c.sockUnits, n)
	c.grant = growTo(c.grant, n)

	for o := 0; o < n; o++ {
		c.resLines[o], c.resLat[o] = 0, 0
		c.resReq[o] = c.reqLines[o]
		c.capped[o] = c.reqLines[o]
		if b := c.budgets[o]; b > 0 {
			if lim := b * dt / c.cfg.LineBytes; c.capped[o] > lim {
				c.capped[o] = lim
			}
		}
	}

	sockets := c.cfg.Sockets
	capUnits := c.cfg.SocketCapacity() * dt
	interCap := 0.0
	if sockets > 1 && c.cfg.InterSocketBandwidth > 0 {
		interCap = c.cfg.InterSocketBandwidth * dt / c.cfg.LineBytes
	}

	for s := 0; s < sockets; s++ {
		var remoteTotal float64
		for o := 0; o < n; o++ {
			lines := c.capped[o]
			if lines == 0 {
				c.sockLines[o] = 0
				continue
			}
			r := c.remoteFrac[o]
			if sockets == 1 {
				r = 0
			}
			if int(c.homes[o]) == s {
				c.sockLines[o] = lines * (1 - r)
			} else {
				rem := lines * r / float64(sockets-1)
				c.sockLines[o] = rem
				remoteTotal += rem
			}
		}
		remScale := 1.0
		if interCap > 0 && remoteTotal > interCap {
			remScale = interCap / remoteTotal
		}
		var total float64
		for o := 0; o < n; o++ {
			lines := c.sockLines[o]
			if lines == 0 {
				c.sockUnits[o] = 0
				continue
			}
			if int(c.homes[o]) != s {
				lines *= remScale
				c.sockLines[o] = lines
				c.sockUnits[o] = lines / c.cfg.RemoteBandwidthFactor
			} else {
				c.sockUnits[o] = lines
			}
			total += c.sockLines[o]
		}
		if total == 0 {
			continue
		}
		c.waterfill(n, capUnits)

		var unitsDemand float64
		for o := 0; o < n; o++ {
			unitsDemand += c.sockUnits[o]
		}
		congestion := 1.0
		util := 1.0
		if capUnits > 0 {
			if unitsDemand > capUnits {
				congestion = unitsDemand / capUnits
			} else {
				util = unitsDemand / capUnits
			}
		}
		for o := 0; o < n; o++ {
			if c.sockUnits[o] == 0 {
				continue
			}
			grantedLines := c.grant[o]
			if int(c.homes[o]) != s {
				grantedLines *= c.cfg.RemoteBandwidthFactor
			}
			share := c.sockLines[o] / total
			hit := 0.0
			if c.capped[o] > 0 && c.reqLines[o] > 0 {
				hit = c.hitSum[o] / c.reqLines[o]
			}
			interf := util * (1 - share)
			effHit := hit * (1 - interf)
			lat := effHit*c.cfg.RowHitLatency +
				(1-effHit)*((1-interf)*c.cfg.RowMissLatency+interf*c.cfg.RowConflictLatency)
			lat *= congestion
			if int(c.homes[o]) != s {
				lat *= c.cfg.RemoteLatencyFactor
			}
			c.resLines[o] += grantedLines
			c.resLat[o] += lat * grantedLines
		}
	}

	for o := 0; o < n; o++ {
		st := c.statsFor(Owner(o))
		st.Requested += c.reqLines[o]
		st.Delivered += c.resLines[o]
		st.Bytes += c.resLines[o] * c.cfg.LineBytes
		st.LatencySum += c.resLat[o]
	}

	for o := 0; o < n; o++ {
		c.reqLines[o], c.hitSum[o] = 0, 0
	}
	return refResolution{req: c.resReq, lines: c.resLines, latSum: c.resLat}
}

func (c *refController) waterfill(n int, capUnits float64) {
	remaining := capUnits
	active := 0
	var demand float64
	for o := 0; o < n; o++ {
		c.grant[o] = 0
		if c.sockUnits[o] > 0 {
			active++
			demand += c.sockUnits[o]
		}
	}
	for active > 0 {
		if demand <= remaining {
			for o := 0; o < n; o++ {
				if c.sockUnits[o] > 0 && c.grant[o] == 0 { // grant is 0 until assigned below
					c.grant[o] = c.sockUnits[o]
				}
			}
			return
		}
		fair := remaining / float64(active)
		progressed := false
		for o := 0; o < n; o++ {
			d := c.sockUnits[o]
			if d > 0 && c.grant[o] == 0 && d <= fair {
				c.grant[o] = d
				remaining -= d
				demand -= d
				active--
				progressed = true
			}
		}
		if !progressed {
			for o := 0; o < n; o++ {
				if c.sockUnits[o] > 0 && c.grant[o] == 0 {
					c.grant[o] = fair
				}
			}
			return
		}
	}
}

func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (c *refController) statsFor(o Owner) *Stats {
	for len(c.stats) <= int(o) {
		c.stats = append(c.stats, Stats{})
	}
	return &c.stats[o]
}

func (c *refController) Stats(o Owner) Stats {
	if o >= 0 && int(o) < len(c.stats) {
		return c.stats[o]
	}
	return Stats{}
}
