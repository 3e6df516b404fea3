package layout

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// walkLoads is the oracle Geometry is checked against: the per-tier load
// read off the fragment walk, folded into one sub-request per touched
// server by Map.
func walkLoads(t Tiered, off, size int64) []TierLoad {
	loads := make([]TierLoad, t.Tiers())
	for _, sub := range t.Map(off, size) {
		l := &loads[t.TierOf(sub.Server)]
		l.Touched++
		l.Max = max(l.Max, sub.Size)
	}
	return loads
}

// loads is Geometry.Distribute into a fresh buffer.
func loads(tb testing.TB, t Tiered, off, size int64) []TierLoad {
	tb.Helper()
	g, err := NewGeometry(t)
	if err != nil {
		tb.Fatalf("%v: %v", t, err)
	}
	dst := make([]TierLoad, t.Tiers())
	g.Distribute(dst, off, size)
	return dst
}

// Property: Geometry agrees exactly with the fragment walk for arbitrary
// two-tier configurations and ranges.
func TestDistributeAnalyticMatchesWalkProperty(t *testing.T) {
	prop := func(m8, n8 uint8, h16, s16 uint16, off32, size32 uint32) bool {
		m := int(m8%7) + 1
		n := int(n8 % 7)
		h := int64(h16%32) * 4096
		s := int64(s16%32) * 4096
		st := Striping{M: m, N: n, H: h, S: s}
		if st.Validate() != nil {
			return true
		}
		off := int64(off32 % (4 << 20))
		size := int64(size32 % (4 << 20))
		return slices.Equal(loads(t, TieredOf(st), off, size), walkLoads(TieredOf(st), off, size))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeAnalyticHandWorked(t *testing.T) {
	st := TieredOf(Striping{M: 2, N: 1, H: 10, S: 30})
	// Same example as TestDistributeByHand.
	want := []TierLoad{{Touched: 2, Max: 10}, {Touched: 1, Max: 25}}
	if d := loads(t, st, 5, 40); !slices.Equal(d, want) {
		t.Fatalf("d = %+v, want %+v", d, want)
	}
	if got := loads(t, st, 0, 0); !slices.Equal(got, make([]TierLoad, 2)) {
		t.Fatalf("zero-size = %+v", got)
	}
}

func TestDistributeAnalyticPanics(t *testing.T) {
	g, err := NewGeometry(TieredOf(Fixed(2, 2, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]TierLoad, 2)
	mustPanic(t, func() { g.Distribute(dst, -1, 5) })
	mustPanic(t, func() { g.Distribute(dst[:1], 0, 5) })
	if _, err := NewGeometry(TieredOf(Striping{M: 1, N: 1})); err == nil {
		t.Fatal("striping storing no data accepted")
	}
}

// The four sub-request distribution cases of the paper's Figure 4: the
// request may begin and end on either server class. Check each case's
// class participation explicitly.
func TestDistributeFigure4Cases(t *testing.T) {
	st := TieredOf(Striping{M: 2, N: 2, H: 10, S: 20}) // round: H zone [0,20), S zone [20,60)
	cases := []struct {
		name     string
		off, end int64
		wantHs   bool // request begins on an HServer
		wantSs   bool // request ends on an SServer
	}{
		{"a: begins H, ends H", 5, 15, true, false},
		{"b: begins H, ends S", 5, 45, true, true},
		{"c: begins S, ends H (crosses round)", 25, 75, true, true},
		{"d: begins S, ends S", 25, 55, false, true},
	}
	for _, c := range cases {
		d := loads(t, st, c.off, c.end-c.off)
		if (d[0].Touched > 0) != c.wantHs && (d[1].Touched > 0) != c.wantSs {
			t.Errorf("%s: distribution %+v", c.name, d)
		}
		if !slices.Equal(d, walkLoads(st, c.off, c.end-c.off)) {
			t.Errorf("%s: geometry and walk disagree", c.name)
		}
	}
}

// randomStripings yields a spread of configurations including the
// degenerate H==0 / S==0 layouts and single-class systems.
func randomStripings(rng *rand.Rand, n int) []Striping {
	sts := []Striping{
		{M: 6, N: 2, H: 4 << 10, S: 64 << 10},
		{M: 6, N: 2, H: 0, S: 64 << 10},
		{M: 6, N: 2, H: 64 << 10, S: 0},
		{M: 4, N: 0, H: 16 << 10, S: 0},
		{M: 0, N: 3, H: 0, S: 32 << 10},
		{M: 1, N: 1, H: 4 << 10, S: 8 << 10},
	}
	for len(sts) < n {
		st := Striping{
			M: rng.Intn(8),
			N: rng.Intn(8),
			H: int64(rng.Intn(64)) * 4096,
			S: int64(rng.Intn(64)) * 4096,
		}
		if st.Validate() != nil {
			continue
		}
		sts = append(sts, st)
	}
	return sts
}

func TestGeometryMatchesDistributeAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, st := range randomStripings(rng, 40) {
		tt := TieredOf(st)
		g, err := NewGeometry(tt)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		got := make([]TierLoad, 2)
		for trial := 0; trial < 200; trial++ {
			off := rng.Int63n(1 << 28)
			size := rng.Int63n(4<<20) + 1
			g.Distribute(got, off, size)
			if want := walkLoads(tt, off, size); !slices.Equal(got, want) {
				t.Fatalf("%v Distribute(%d,%d) = %+v, walk %+v", st, off, size, got, want)
			}
		}
	}
}

// TestGeometryCanonicalPeriodicity pins that distributions are invariant
// under shifting the offset by whole striping rounds.
func TestGeometryCanonicalPeriodicity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, st := range randomStripings(rng, 40) {
		tt := TieredOf(st)
		for trial := 0; trial < 200; trial++ {
			off := rng.Int63n(1 << 30)
			size := rng.Int63n(8<<20) + 1
			canon := off % st.RoundSize()
			if got, want := loads(t, tt, canon, size), loads(t, tt, off, size); !slices.Equal(got, want) {
				t.Fatalf("%v: Distribute(%d,%d)=%+v != Distribute(%d,%d)=%+v",
					st, canon, size, got, off, size, want)
			}
		}
	}
}

func TestGeometryErrorsAndPanics(t *testing.T) {
	if _, err := NewGeometry(Tiered{}); err == nil {
		t.Fatal("empty configuration accepted")
	}
	if _, err := NewGeometry(TieredOf(Striping{M: 2, N: 2, H: 0, S: 0})); err == nil {
		t.Fatal("zero-stripe striping accepted")
	}
	g, err := NewGeometry(TieredOf(Striping{M: 2, N: 2, H: 4096, S: 8192}))
	if err != nil {
		t.Fatal(err)
	}
	dst := []TierLoad{{Touched: 9, Max: 9}, {Touched: 9, Max: 9}}
	if g.Distribute(dst, 0, 0); !slices.Equal(dst, make([]TierLoad, 2)) {
		t.Fatalf("zero-size request should distribute to nothing, got %+v", dst)
	}
	mustPanic(t, func() { g.Distribute(dst, -1, 10) })
	mustPanic(t, func() { g.Distribute(dst, 0, -1) })
	mustPanic(t, func() { g.Distribute(make([]TierLoad, 3), 0, 10) })
}

// TestGeometryDistributeAllocs pins the evaluator's inner loop at zero
// allocations.
func TestGeometryDistributeAllocs(t *testing.T) {
	g, err := NewGeometry(Tiered{Counts: []int{6, 1, 1}, Stripes: []int64{16 << 10, 64 << 10, 256 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]TierLoad, 3)
	if n := testing.AllocsPerRun(100, func() { g.Distribute(dst, 123456, 2<<20) }); n != 0 {
		t.Fatalf("Distribute allocates %v times per call", n)
	}
}

// fuzzTiered decodes a 1-4 tier configuration with 0-4 servers and
// stripes of 0-4096 bytes per tier: zero counts, zero stripes and odd
// stripe sizes are all reachable.
func fuzzTiered(tiers uint8, counts uint32, stripes uint64) Tiered {
	k := int(tiers%4) + 1
	t := Tiered{Counts: make([]int, k), Stripes: make([]int64, k)}
	for i := range k {
		t.Counts[i] = int(counts>>(8*i)&0xff) % 5
		t.Stripes[i] = int64(stripes>>(16*i)&0xffff) % 4097
	}
	return t
}

// FuzzGeometryDistribute checks Geometry against the fragment-walk oracle
// over random tier configurations and requests.
func FuzzGeometryDistribute(f *testing.F) {
	f.Add(uint8(1), uint32(0x0206), uint64(0x1000_0400), uint32(123456), uint32(1<<16))
	f.Add(uint8(2), uint32(0x010102), uint64(0x0100_0040_0010), uint32(0), uint32(80))
	f.Add(uint8(2), uint32(0x010102), uint64(0x0100_0040_0000), uint32(7), uint32(200))          // zero-stripe tier
	f.Add(uint8(3), uint32(0x01000302), uint64(0x0001_0200_0300_0400), uint32(99), uint32(5000)) // zero-count tier
	f.Add(uint8(0), uint32(1), uint64(1), uint32(1<<31), uint32(3))
	f.Fuzz(func(t *testing.T, tiers uint8, counts uint32, stripes uint64, off, size uint32) {
		tt := fuzzTiered(tiers, counts, stripes)
		if tt.Validate() != nil {
			return
		}
		n := int64(size % (1 << 16))
		got, want := loads(t, tt, int64(off), n), walkLoads(tt, int64(off), n)
		if !slices.Equal(got, want) {
			t.Fatalf("%v Distribute(%d,%d) = %+v, walk %+v", tt, off, n, got, want)
		}
	})
}

// BenchmarkGeometryDistribute measures one request's per-tier load at
// K=2 (the paper's 6H+2S testbed) and K=3.
func BenchmarkGeometryDistribute(b *testing.B) {
	for _, c := range []struct {
		name string
		t    Tiered
	}{
		{"K=2", TieredOf(Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10})},
		{"K=3", Tiered{Counts: []int{6, 1, 1}, Stripes: []int64{16 << 10, 64 << 10, 256 << 10}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := NewGeometry(c.t)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]TierLoad, c.t.Tiers())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Distribute(dst, 123456, 2<<20)
			}
		})
	}
}
