package layout

import "fmt"

// TierLoad is one tier's share of a request — the per-class quantities
// the paper's cost model consumes (Section III-D, Fig. 5): how many of
// the tier's servers serve part of the request (m or n) and the largest
// sub-request on any of them (s_m or s_n).
type TierLoad struct {
	Touched int   // servers of the tier serving part of the request
	Max     int64 // largest sub-request on any of them, bytes
}

// Geometry is a validated, reusable evaluator of one tiered striping
// configuration: the layout computes how a request spreads over servers
// for the cost model here and nowhere else. The two-tier Striping is its
// K=2 case through TieredOf. HARL's stripe-size search scores thousands
// of requests under each candidate, so validation and the round size are
// done once and the per-request work is the cover arithmetic alone.
type Geometry struct {
	t     Tiered
	round int64 // t.RoundSize()
}

// NewGeometry validates t and precomputes its round size. The geometry
// shares t's slices, so the caller must not change them afterwards.
func NewGeometry(t Tiered) (Geometry, error) {
	if err := t.Validate(); err != nil {
		return Geometry{}, err
	}
	return Geometry{t: t, round: t.RoundSize()}, nil
}

// Distribute writes the per-tier load of the request [off, off+size)
// into dst, one entry per tier, in O(total servers) time independent of
// the request size and without allocating. It is exact for every
// placement case, including the four begin/end cases of the paper's
// Fig. 4 and tiers with a zero stripe size.
//
// For each server the covered byte count comes from round geometry: the
// server's stripe occupies a fixed window of every striping round, the
// middle rounds of the request are covered entirely, and the first and
// last rounds contribute their window overlaps.
func (g *Geometry) Distribute(dst []TierLoad, off, size int64) {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("layout: invalid range %d+%d", off, size))
	}
	if len(dst) != len(g.t.Counts) {
		panic(fmt.Sprintf("layout: %d loads for %d tiers", len(dst), len(g.t.Counts)))
	}
	clear(dst)
	if size == 0 {
		return
	}
	end := off + size
	rb := off / g.round
	re := (end - 1) / g.round
	mid := max(re-rb-1, 0)
	first, last := rb*g.round, re*g.round

	var zone int64 // the current server's window within a round
	for ti, c := range g.t.Counts {
		stripe := g.t.Stripes[ti]
		if stripe == 0 {
			continue
		}
		var l TierLoad
		for i := 0; i < c; i++ {
			cov := mid*stripe + overlap(off, end, first+zone, first+zone+stripe)
			if re > rb {
				cov += overlap(off, end, last+zone, last+zone+stripe)
			}
			if cov > 0 {
				l.Touched++
				l.Max = max(l.Max, cov)
			}
			zone += stripe
		}
		dst[ti] = l
	}
}

// overlap returns the length of [a,b) ∩ [c,d).
func overlap(a, b, c, d int64) int64 {
	return max(min(b, d)-max(a, c), 0)
}
