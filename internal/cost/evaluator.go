package cost

import (
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
)

// Evaluator scores requests under one pinned layout: a stripe size per
// tier. It is the inner loop of both of HARL's searches: the parameters
// are lifted to tiers once per evaluator and the layout is validated once
// per candidate (Reset), so scoring a request is the geometry's cover
// arithmetic plus Eqs. (1)-(8), with no allocation. Results are
// bit-identical to Params.RequestCost and MultiParams.RequestCost, which
// share the same arithmetic.
//
// An Evaluator is not safe for concurrent use; parallel searches give
// each worker its own and Reset it between candidates.
type Evaluator struct {
	netUnit float64
	r       int     // write replication factor, as Params.R
	read    []rates // per-tier rows for reads
	write   []rates // per-tier rows for writes
	counts  []int
	geo     layout.Geometry
	stripes []int64 // the pinned candidate, shared with geo
	spare   []int64 // the next candidate, while Reset validates it
	load    []layout.TierLoad
}

// NewEvaluator returns an evaluator pinned to stripe sizes (h, s) on this
// parameter set's M+N servers.
func (p Params) NewEvaluator(h, s int64) (*Evaluator, error) {
	return newEvaluator(MultiOf(p), p.R, []int64{h, s})
}

// NewEvaluator returns an evaluator pinned to one stripe size per tier.
func (p MultiParams) NewEvaluator(stripes ...int64) (*Evaluator, error) {
	return newEvaluator(p, 0, stripes)
}

func newEvaluator(p MultiParams, r int, stripes []int64) (*Evaluator, error) {
	k := len(p.Tiers)
	buf := make([]int64, 2*k)
	rows := make([]rates, 2*k)
	for i, t := range p.Tiers {
		rows[i], rows[k+i] = t.rates(device.Read), t.rates(device.Write)
	}
	e := &Evaluator{
		netUnit: p.NetUnit,
		r:       r,
		read:    rows[:k],
		write:   rows[k:],
		counts:  p.Counts(),
		stripes: buf[:k],
		spare:   buf[k:],
		load:    make([]layout.TierLoad, k),
	}
	if err := e.Reset(stripes...); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-pins the evaluator to a new candidate, one stripe size per
// tier ((h, s) for a Params evaluator). On error the evaluator keeps its
// previous candidate.
func (e *Evaluator) Reset(stripes ...int64) error {
	if len(stripes) != len(e.counts) {
		return fmt.Errorf("cost: %d stripes for %d tiers", len(stripes), len(e.counts))
	}
	copy(e.spare, stripes)
	geo, err := layout.NewGeometry(layout.Tiered{Counts: e.counts, Stripes: e.spare})
	if err != nil {
		return err
	}
	e.geo = geo
	e.stripes, e.spare = e.spare, e.stripes
	return nil
}

// RequestCost returns the modeled completion time (seconds) of one
// request under the pinned layout.
func (e *Evaluator) RequestCost(op device.Op, offset, size int64) float64 {
	return e.RequestBreakdown(op, offset, size).Total()
}

// RequestBreakdown is RequestCost with the three terms itemized.
func (e *Evaluator) RequestBreakdown(op device.Op, offset, size int64) Breakdown {
	if size <= 0 {
		return Breakdown{}
	}
	e.geo.Distribute(e.load, offset, size)
	rows := e.write
	if op == device.Read {
		rows = e.read
	}
	return breakdown(e.netUnit, replication(op, e.r), rows, e.load)
}
