package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
)

// Tiny versions of the three workloads keep the tests fast; they run the
// same code paths as the benchmark's full-size ones.
var tinyScale = scaleShape{hdd: 6, ssd: 2, clients: 4, writes: 8, reqSize: 256 << 10, stripe: 64 << 10}

func tinyMulti() ior.MultiConfig {
	return ior.MultiConfig{
		Ranks: 4, RanksPerNode: 2,
		Regions: []ior.RegionSpec{
			{Size: 16 << 20, RequestSize: 64 << 10},
			{Size: 64 << 20, RequestSize: 1 << 20},
		},
		RequestsPerRankPerRegion: 16,
	}
}

func tinyBenches(seed int64) []*bench {
	return []*bench{
		newScaleWrite(seed, tinyScale),
		newMultiObserved(seed, tinyMulti()),
		newBTIOVerify(seed, btio.ClassS(4)),
	}
}

// benchmarkJSON reads the metric declarations of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestUntracedRunPrintsEveryEndToEndMetric(t *testing.T) {
	e2e, _ := benchmarkJSON(t)
	for _, b := range tinyBenches(1) {
		res, err := measure(b, 0.01, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", b.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, b.name, res.Metrics, e2e)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", b.name, name, m.Value)
			}
		}
	}
}

// The traced run reports every declared per-layer metric; its isolated
// replays check their counts against the traced replay (map calls against
// the registry's pfs calls, transfers against the network's count) and
// fail the run otherwise.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := benchmarkJSON(t)
	for _, b := range tinyBenches(2) {
		res, err := tracedRun(b, 0.01, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		checkMetrics(t, b.name, res.Metrics, perLayer)
		var sum float64
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, "cpu.") {
				if m.Value < 0 {
					t.Errorf("%s: %s = %v", b.name, name, m.Value)
				}
				sum += m.Value
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: cpu.* shares sum to %v, want 1", b.name, sum)
		}
	}
}

// Every replay mode reports the same virtual results and the same
// registry counters: tracing and observing change nothing the simulation
// does. The capture sees one pfs call per harness call in scale_write,
// exactly what the registry counts.
func TestTracedReplayMatchesUntraced(t *testing.T) {
	for _, b := range tinyBenches(3) {
		in, err := b.setup()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planner(in).Analyze(in.trace)
		if err != nil {
			t.Fatal(err)
		}
		var vs []virt
		var stats []pfsStats
		var tr *replay
		for _, m := range []mode{bare, observed, traced} {
			rp, err := b.run(in, plan, m)
			if err != nil {
				t.Fatalf("%s mode %d: %v", b.name, m, err)
			}
			vs = append(vs, rp.lg.virtual(rp.events))
			if rp.reg != nil {
				stats = append(stats, pfsStatsOf(rp.tb, rp.reg))
			}
			if m == traced {
				tr = rp
			}
		}
		if vs[0] != vs[1] || vs[0] != vs[2] {
			t.Errorf("%s: virtual results differ by mode: %+v", b.name, vs)
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: registry counters differ: observed %+v, traced %+v", b.name, stats[0], stats[1])
		}
		c := tr.capture
		if int64(len(c.pfsOps)) != stats[1].Ops {
			t.Errorf("%s: captured %d pfs calls, registry counted %d", b.name, len(c.pfsOps), stats[1].Ops)
		}
		if b.name == "scale_write" && len(c.pfsOps) != len(tr.lg.calls) {
			t.Errorf("scale_write: captured %d pfs calls for %d requests", len(c.pfsOps), len(tr.lg.calls))
		}
		if got := transferReplay(b.seed, tr.tb.Config.Network, c); got != tr.xfers || got == 0 {
			t.Errorf("%s: transfer replay moved %d transfers, traced replay %d", b.name, got, tr.xfers)
		}
	}
}

// A server that fails every request shows up as failed operations and a
// failed check, not as a silently shorter run.
func TestFlakyServerCountsFailedOperations(t *testing.T) {
	b := newScaleWrite(1, tinyScale)
	newBed := b.newBed
	b.newBed = func() (*cluster.Testbed, error) {
		tb, err := newBed()
		if err == nil {
			tb.FS.SetFlaky(0, 1, 0)
		}
		return tb, err
	}
	res, err := measure(b, 0.01, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("measure with a flaky server: err %v", err)
	}
	if res == nil || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("result %+v, want failed operations counted", res)
	}
}

// The harness's BTIO driver issues exactly what btio.Run issues: on the
// same file both take the same virtual time per phase.
func TestBTIODriverMatchesBTIORun(t *testing.T) {
	bc := btio.ClassS(4)
	bc.Verify = true
	place := func() (*mpiio.World, *mpiio.PlainFile) {
		tb := cluster.MustNew(cluster.Default())
		w := mpiio.NewWorld(tb.FS, bc.Ranks, bc.RanksPerNode)
		f, err := createPlain(w, "btio", layout.Fixed(6, 2, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		return w, f
	}
	w, f := place()
	want, err := btio.Run(w, f, bc)
	if err != nil || !want.Verified {
		t.Fatalf("btio.Run: %v (verified %v)", err, want.Verified)
	}
	w, f = place()
	lg := newOpLog(w.Engine())
	driveBTIO(w, lg, f, bc)
	w.Engine().Run()
	if err := lg.check(); err != nil {
		t.Fatal(err)
	}
	if lg.span[1] != want.WriteTime || lg.span[0] != want.ReadTime {
		t.Errorf("harness BTIO took write %v read %v, btio.Run %v and %v",
			lg.span[1], lg.span[0], want.WriteTime, want.ReadTime)
	}
	if got := len(lg.calls); got != 2*bc.Snapshots() || lg.attempted != got {
		t.Errorf("%d timed calls, %d attempted, want one per collective", got, lg.attempted)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartiles([]float64{3, 1, 2}); got != [3]float64{1, 2, 3} {
		t.Errorf("quartiles = %v", got)
	}
	if xs[0] != 10 {
		t.Errorf("quartiles reordered its input")
	}
}
