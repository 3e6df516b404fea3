// Package cost implements the analytical data-access cost model of
// Section III-D of the paper: the expected I/O completion time of one file
// request in a hybrid PFS, as a function of the I/O pattern, the system
// architecture, network and storage parameters (Table I), and the data
// layout (stripe sizes h on HServers and s on SServers).
//
// The cost of a request is T = T_X + T_S + T_T:
//
//   - T_X, the network transfer time, is the larger of the biggest
//     sub-request on either class times the unit network time t (Eq. 1);
//   - T_S, the storage startup time, is the expected maximum of the
//     per-server startup draws. For m servers with startup uniform on
//     [αmin, αmax] the expected maximum is αmin + m/(m+1)·(αmax-αmin)
//     (Eqs. 2-4), and T_S is the larger of the HServer and SServer terms
//     (Eq. 5);
//   - T_T, the storage transfer time, is the larger of s_m·β_h and
//     s_n·β_s for the class-specific transfer rates (Eq. 6).
//
// Reads and writes use the same formulas with the class parameters
// swapped in (Eqs. 7-8); SServer writes are slower than reads, reflecting
// flash garbage collection and wear leveling.
//
// The per-request quantities (m, n, s_m, s_n) come from the striping
// geometry in package layout. The paper derives them with the closed-form
// case analysis of its Figures 4-5; layout.Geometry computes them exactly
// for all four cases (and the degenerate h=0 / s=0 layouts) from the same
// round-robin geometry, in O(M+N) per request.
//
// One arithmetic serves every form of the model. Each server class is a
// tier with its own read and write rows (TierParams); a request reaches
// the model as one (servers touched, largest sub-request) load per tier,
// and each of T_X, T_S and T_T is the maximum of its per-tier terms. The
// paper's two-class Params is the K=2 case — HServers then SServers, the
// HServer row serving both operations — and MultiParams is the
// generalization to any number of tiers (the paper's first future-work
// item). An Evaluator pins one layout and scores requests against it
// without allocating; RequestCost on Params or MultiParams is the same
// arithmetic for a single request.
package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
)

// Params carries every Table I parameter. Times are in seconds and rates
// in seconds per byte, since the model is pure arithmetic (the simulator,
// not the model, owns the integer virtual clock).
type Params struct {
	// Architecture.
	M int // number of HServers
	N int // number of SServers

	// Network: unit data transfer time t (seconds per byte).
	NetUnit float64

	// HServer storage: startup uniform on [AlphaHMin, AlphaHMax], unit
	// transfer time BetaH. The paper uses one HServer profile for both
	// operations.
	AlphaHMin, AlphaHMax float64
	BetaH                float64

	// SServer storage, read path.
	AlphaSRMin, AlphaSRMax float64
	BetaSR                 float64

	// SServer storage, write path.
	AlphaSWMin, AlphaSWMax float64
	BetaSW                 float64

	// Replication factor for writes: every written byte is committed on
	// R replicas before the ack (primary/backup chain). 0 and 1 both
	// mean "no replication" and leave every formula untouched, so the
	// zero value models exactly the original paper. Reads are served by
	// one replica and never pay for R.
	R int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.M < 0 || p.N < 0 || p.M+p.N == 0:
		return fmt.Errorf("cost: invalid server counts M=%d N=%d", p.M, p.N)
	case p.NetUnit < 0:
		return fmt.Errorf("cost: negative network unit time")
	case p.AlphaHMin < 0 || p.AlphaHMax < p.AlphaHMin:
		return fmt.Errorf("cost: bad HServer startup range [%v,%v]", p.AlphaHMin, p.AlphaHMax)
	case p.AlphaSRMin < 0 || p.AlphaSRMax < p.AlphaSRMin:
		return fmt.Errorf("cost: bad SServer read startup range")
	case p.AlphaSWMin < 0 || p.AlphaSWMax < p.AlphaSWMin:
		return fmt.Errorf("cost: bad SServer write startup range")
	case p.BetaH < 0 || p.BetaSR < 0 || p.BetaSW < 0:
		return fmt.Errorf("cost: negative unit transfer time")
	case p.R < 0:
		return fmt.Errorf("cost: negative replication factor R=%d", p.R)
	case p.R > p.M+p.N:
		return fmt.Errorf("cost: replication factor R=%d exceeds cluster size %d", p.R, p.M+p.N)
	}
	return nil
}

// expectedMaxUniform returns E[max of m iid U(lo,hi) draws] =
// lo + m/(m+1)·(hi-lo), the order-statistics term of Eqs. (3)-(4).
// Zero servers contribute no startup.
func expectedMaxUniform(lo, hi float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	k := float64(m)
	return lo + k/(k+1)*(hi-lo)
}

// Breakdown itemizes one request's modeled cost.
type Breakdown struct {
	Network  float64 // T_X
	Startup  float64 // T_S
	Transfer float64 // T_T
}

// Total returns T = T_X + T_S + T_T.
func (b Breakdown) Total() float64 { return b.Network + b.Startup + b.Transfer }

// RequestCost returns the modeled completion time (seconds) of one file
// request of the given size at the given offset under stripe sizes (h, s).
func (p Params) RequestCost(op device.Op, offset, size, h, s int64) float64 {
	return p.RequestBreakdown(op, offset, size, h, s).Total()
}

// RequestBreakdown is RequestCost with the three terms itemized. It lifts
// p and (h, s) to two tiers on the stack; callers scoring many requests
// under one pair use an Evaluator, which lifts once.
func (p Params) RequestBreakdown(op device.Op, offset, size, h, s int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	geo, err := layout.NewGeometry(layout.TieredOf(layout.Striping{M: p.M, N: p.N, H: h, S: s}))
	if err != nil {
		panic(err)
	}
	var load [2]layout.TierLoad
	geo.Distribute(load[:], offset, size)
	rows := p.rates(op)
	return breakdown(p.NetUnit, replication(op, p.R), rows[:], load[:])
}

// rates is one tier's Table I row for one operation: startup uniform on
// [alphaMin, alphaMax], then beta seconds per byte.
type rates struct{ alphaMin, alphaMax, beta float64 }

// rates lifts p to its two tier rows for op, HServers then SServers. The
// HServer profile serves both operations.
func (p Params) rates(op device.Op) [2]rates {
	s := rates{p.AlphaSWMin, p.AlphaSWMax, p.BetaSW}
	if op == device.Read {
		s = rates{p.AlphaSRMin, p.AlphaSRMax, p.BetaSR}
	}
	return [2]rates{{p.AlphaHMin, p.AlphaHMax, p.BetaH}, s}
}

// rates returns the tier's row for op.
func (t TierParams) rates(op device.Op) rates {
	if op == device.Read {
		return rates{t.ReadAlphaMin, t.ReadAlphaMax, t.ReadBeta}
	}
	return rates{t.WriteAlphaMin, t.WriteAlphaMax, t.WriteBeta}
}

// replication returns the replication factor an operation pays for:
// writes commit on r replicas, reads are served by one. 0 and 1 both
// mean unreplicated.
func replication(op device.Op, r int) int {
	if op == device.Write && r > 1 {
		return r
	}
	return 1
}

// breakdown applies Eqs. (1)-(8) to one request's per-tier load: tier i
// has the Table I row tiers[i] for the request's operation, and load[i]
// holds the servers it touches and its largest sub-request. It is the
// model's one arithmetic path — Params, MultiParams and Evaluator all end
// here — so every form of the model is bit-identical to every other on
// the same request.
//
// r is the replication factor the operation pays for (see replication).
// A replicated write forwards each primary's sub-request serially down
// its chain over the primary's uplink (r-1 extra hops of the largest
// sub-request), and the ack waits on startup draws across all r stores
// of each touched slot; r == 1 leaves every formula untouched.
func breakdown(netUnit float64, r int, tiers []rates, load []layout.TierLoad) Breakdown {
	var b Breakdown
	var maxSub float64
	for i, t := range tiers {
		sub := float64(load[i].Max)
		maxSub = max(maxSub, sub)
		// Eqs. (2)-(5): expected maximum startup across touched servers.
		b.Startup = max(b.Startup, expectedMaxUniform(t.alphaMin, t.alphaMax, load[i].Touched*r))
		// Eq. (6): storage transfer of the tier's largest sub-request.
		b.Transfer = max(b.Transfer, sub*t.beta)
	}
	// Eq. (1): network transfer of the largest sub-request on any tier.
	b.Network = maxSub * netUnit
	if r > 1 {
		b.Network += float64(r-1) * maxSub * netUnit
	}
	return b
}
