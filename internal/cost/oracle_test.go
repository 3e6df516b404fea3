package cost

import (
	"math"
	"math/rand"
	"testing"

	"harl/internal/device"
	"harl/internal/layout"
)

// paperCost is the frozen reference for the two-tier model: Eqs. (1)-(8)
// written out plainly over (m, n, s_m, s_n) read off the fragment walk,
// with the replication factor applied to writes as cost.Params documents.
// It shares no code with the model beyond expectedMaxUniform.
func paperCost(p Params, op device.Op, off, size, h, s int64) float64 {
	st := layout.Striping{M: p.M, N: p.N, H: h, S: s}
	var m, n int
	var sm, sn float64
	for _, sub := range st.Map(off, size) {
		if st.IsHServer(sub.Server) {
			m++
			sm = math.Max(sm, float64(sub.Size))
		} else {
			n++
			sn = math.Max(sn, float64(sub.Size))
		}
	}
	alphaSMin, alphaSMax, betaS := p.AlphaSRMin, p.AlphaSRMax, p.BetaSR
	if op == device.Write {
		alphaSMin, alphaSMax, betaS = p.AlphaSWMin, p.AlphaSWMax, p.BetaSW
	}
	r := 1
	if op == device.Write && p.R > 1 {
		r = p.R
	}
	tx := math.Max(sm, sn) * p.NetUnit // Eq. (1)
	if r > 1 {
		tx += float64(r-1) * math.Max(sm, sn) * p.NetUnit
	}
	ts := math.Max(expectedMaxUniform(p.AlphaHMin, p.AlphaHMax, m*r), // Eqs. (2)-(5)
		expectedMaxUniform(alphaSMin, alphaSMax, n*r))
	tt := math.Max(sm*p.BetaH, sn*betaS) // Eq. (6)
	return tx + ts + tt                  // Eqs. (7)-(8)
}

// TestModelMatchesPaperOracle checks every form of the model — Params,
// its Evaluator, and (unreplicated) MultiOf's RequestCost and Evaluator
// — against the frozen reference bit for bit, over the h=0 and s=0
// extremes, R=2, reads and writes.
func TestModelMatchesPaperOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := [][2]int64{
		{4 << 10, 8 << 10},
		{0, 64 << 10},
		{64 << 10, 0},
		{36 << 10, 148 << 10},
		{1000, 3000},
	}
	for _, r := range []int{0, 1, 2} {
		p := evalParams()
		p.R = r
		for _, pair := range pairs {
			h, s := pair[0], pair[1]
			e, err := p.NewEvaluator(h, s)
			if err != nil {
				t.Fatal(err)
			}
			me, err := MultiOf(p).NewEvaluator(h, s)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 200; trial++ {
				off := rng.Int63n(64 << 20)
				size := rng.Int63n(2<<20) + 1
				for _, op := range []device.Op{device.Read, device.Write} {
					want := math.Float64bits(paperCost(p, op, off, size, h, s))
					got := map[string]float64{
						"Params":    p.RequestCost(op, off, size, h, s),
						"Evaluator": e.RequestCost(op, off, size),
					}
					if r <= 1 {
						got["MultiParams"] = MultiOf(p).RequestCost(op, off, size, []int64{h, s})
						got["MultiParams.Evaluator"] = me.RequestCost(op, off, size)
					}
					for name, c := range got {
						if math.Float64bits(c) != want {
							t.Fatalf("R=%d pair %v op %v (%d,%d): %s %v != oracle %v",
								r, pair, op, off, size, name, c, math.Float64frombits(want))
						}
					}
				}
			}
		}
	}
}

// TestRequestCostAllocs pins the model's per-request paths at zero
// allocations.
func TestRequestCostAllocs(t *testing.T) {
	p := evalParams()
	p.R = 2
	e, err := MultiOf(p).NewEvaluator(32<<10, 160<<10)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"Params":    func() { p.RequestCost(device.Write, 12345, 512<<10, 32<<10, 160<<10) },
		"Evaluator": func() { e.RequestCost(device.Write, 12345, 512<<10) },
		"Reset":     func() { e.Reset(16<<10, 64<<10) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}
