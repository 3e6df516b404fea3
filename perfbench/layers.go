package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/region"
	"harl/internal/sim"
	"harl/internal/trace"
)

// minLayerTime is how long each isolated layer replay repeats its pass,
// so that its per-call time is not one timer tick.
const minLayerTime = 200 * time.Millisecond

// storeBudget caps the bytes the device.Store replay writes and then
// reads back, so the replay of a phantom workload's disk ops stays small.
const storeBudget = 256 << 20

// tracedRun is the separate run that produces the per-layer metrics:
//  1. the end-to-end loop under a CPU profile, whose self time is
//     attributed to modules (cpu.*), with the planner's search profile;
//  2. a bare, an observed and a traced replay of the same plan: the
//     traced one carries a metrics registry and a span capture, and all
//     three must report the end-to-end loop's virtual results exactly;
//  3. isolated replays of each layer's public entry point on the inputs
//     captured from the traced replay.
func tracedRun(b *bench, seconds float64, out io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	prof := &harl.SearchProfile{}
	cpu, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(cpu.Name())
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return nil, err
	}
	in, its, err := b.loop(seconds, res, prof, out)
	pprof.StopCPUProfile()
	if cerr := cpu.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	shares, err := cpuShares(cpu.Name())
	if err != nil {
		return res, err
	}
	for name, v := range shares {
		put("cpu."+name, "share", v)
	}
	base, plan := its[0].v, its[0].plan

	replays := map[mode]*replay{}
	var obsPS pfsStats
	for _, m := range []mode{bare, observed, traced} {
		rp, err := b.run(in, plan, m)
		if rp != nil {
			res.Attempted += rp.lg.attempted
			res.Failed += rp.lg.failed
		}
		if err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
		if v := rp.lg.virtual(rp.events); v != base {
			return res, fmt.Errorf("replay mode %d reported %+v on the virtual clock, the untraced run %+v", m, v, base)
		}
		if m == observed {
			obsPS = pfsStatsOf(rp.tb, rp.reg)
		}
		if m != traced {
			rp.tb = nil // only the traced testbed is read below; free the others' payload
		}
		replays[m] = rp
	}
	br, or, tr := replays[bare], replays[observed], replays[traced]
	calls := float64(len(tr.lg.calls))
	put("trace_overhead", "ratio", tr.host.Seconds()/br.host.Seconds())
	put("obs.overhead_ratio", "ratio", or.host.Seconds()/br.host.Seconds())
	put("obs.allocs_per_req", "count", (float64(or.mallocs)-float64(br.mallocs))/calls)
	put("telemetry.spans", "count", float64(or.tel.Recorder().Stats().Captured))
	put("sim.op_samples", "count", calls)

	// pfs: the registry counters of the traced replay, which must match
	// those the observer stack's registry saw.
	ps := pfsStatsOf(tr.tb, tr.reg)
	if ps != obsPS {
		return res, fmt.Errorf("traced registry %+v differs from the observed replay's %+v", ps, obsPS)
	}
	put("pfs.hdd_busy_s", "s", ps.HDDBusy)
	put("pfs.ssd_busy_s", "s", ps.SSDBusy)
	put("pfs.hdd_wait_s", "s", ps.HDDWait)
	put("pfs.ssd_wait_s", "s", ps.SSDWait)
	put("pfs.busy_imbalance", "ratio", ps.Imbalance)
	put("pfs.retries", "count", float64(ps.Retries))
	put("pfs.mds_lookups", "count", float64(ps.MDSLookups))
	put("mpiio.pfs_ops_per_call", "ratio", float64(ps.Ops)/calls)

	c := tr.capture
	switch {
	case c.err != nil:
		return res, c.err
	case int64(len(c.pfsOps)) != ps.Ops:
		return res, fmt.Errorf("captured %d pfs calls, registry counted %d", len(c.pfsOps), ps.Ops)
	case uint64(len(c.xfers)) != tr.xfers:
		return res, fmt.Errorf("captured %d transfers, network counted %d", len(c.xfers), tr.xfers)
	}

	// sim: the engine's own count, and dispatch of as many no-op events.
	put("sim.events", "count", float64(base.Events))
	put("sim.events_per_req", "ratio", float64(base.Events)/calls)
	ns, _, _ := timeLoop(float64(base.Events), func() { dispatchNoops(b.seed, int(base.Events)) })
	put("sim.dispatch_ns", "ns", ns)

	// layout: Striping.Map over every captured pfs call.
	lm, err := mapReplay(b, tr.tb, plan, c)
	if err != nil {
		return res, err
	}
	if lm.subreqs != c.disk {
		return res, fmt.Errorf("map replay produced %d sub-requests, the servers served %d", lm.subreqs, c.disk)
	}
	put("layout.map_ns", "ns", lm.ns)
	put("layout.map_allocs", "count", lm.allocs)
	put("layout.map_bytes", "B", lm.bytes)
	put("layout.subreqs_per_req", "ratio", float64(lm.subreqs)/float64(len(c.pfsOps)))

	// netsim: the captured transfers on a fresh engine.
	var replayed uint64
	ns, allocs, _ := timeLoop(float64(len(c.xfers)), func() { replayed = transferReplay(b.seed, tr.tb.Config.Network, c) })
	if replayed != tr.xfers {
		return res, fmt.Errorf("transfer replay moved %d transfers, the traced replay %d", replayed, tr.xfers)
	}
	put("netsim.xfers", "count", float64(tr.xfers))
	put("netsim.transfer_ns", "ns", ns)
	put("netsim.transfer_allocs", "count", allocs)
	put("netsim.max_node_util", "ratio", maxNodeUtil(tr.tb, c))

	// device: the service model per disk op, and the page store.
	servers := tr.tb.FS.Servers()
	ns, _, _ = timeLoop(float64(len(lm.disk)), func() { serviceReplay(b.seed, servers, lm.disk) })
	put("device.service_ns", "ns", ns)
	var moved int64
	ns, allocs, _ = timeLoop(1, func() { moved = storeReplay(lm.disk) })
	put("device.store_ns_per_mib", "ns", ns*mib/float64(moved))
	put("device.store_allocs_per_mib", "count", allocs*mib/float64(moved))

	// region: CV division of the traced requests.
	sorted := &trace.Trace{Records: append([]trace.Record(nil), in.trace.Records...)}
	sorted.SortByOffset()
	var regions []region.Region
	ns, _, _ = timeLoop(1, func() { regions, _ = region.DivideAdaptive(sorted.Records, region.DefaultChunkSize, 0) })
	put("region.divide_s", "s", ns/1e9)
	put("region.count", "count", float64(len(regions)))

	// cost: the evaluator per traced record, and its prediction error.
	entries := b.placed(plan)
	ns, _, _ = timeLoop(float64(len(sorted.Records)), func() { evalReplay(in.params, entries, sorted.Records) })
	put("cost.eval_ns", "ns", ns)
	predErr, err := predictionError(in.params, entries, tr.lg.modelOps(), out)
	if err != nil {
		return res, err
	}
	put("cost.pred_err", "ratio", predErr)

	// harl: the planner's search profile from the first iteration.
	tot := prof.Totals()
	put("harl.scored", "count", float64(tot.Scored))
	put("harl.pruned", "count", float64(tot.Pruned))
	put("harl.cache_hits", "count", float64(tot.CacheHits))
	put("harl.evals", "count", float64(tot.Evals))
	par := planner(in)
	par.Parallelism, par.Profile = 2, &harl.SearchProfile{}
	procs := runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	_, err = par.Analyze(in.trace)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return res, fmt.Errorf("plan: %w", err)
	}
	put("harl.shard_balance", "ratio", par.Profile.ShardBalance())

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	res.Correct = true
	return res, nil
}

// timeLoop repeats pass until minLayerTime has passed and returns the
// mean nanoseconds per unit, plus the allocations and bytes allocated per
// unit by the first pass.
func timeLoop(units float64, pass func()) (ns, allocs, bytes float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	pass()
	total := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := 1
	for total < minLayerTime {
		t := time.Now()
		pass()
		total += time.Since(t)
		n++
	}
	if units <= 0 {
		return 0, 0, 0
	}
	return float64(total.Nanoseconds()) / (float64(n) * units),
		float64(m1.Mallocs-m0.Mallocs) / units, float64(m1.TotalAlloc-m0.TotalAlloc) / units
}

// pfsStats are the traced replay's file-system counters, on the virtual
// clock.
type pfsStats struct {
	HDDBusy, SSDBusy, HDDWait, SSDWait, Imbalance float64
	Retries, MDSLookups, Ops                      int64
}

func pfsStatsOf(tb *cluster.Testbed, reg *obs.Registry) pfsStats {
	var ps pfsStats
	var busy []float64
	for _, s := range tb.FS.Servers() {
		tier := "ssd"
		if s.Role() == device.HDD {
			tier = "hdd"
		}
		labels := []obs.Tag{obs.T("server", s.Name), obs.T("tier", tier)}
		b := float64(reg.CounterValue("pfs_disk_service_ns_total", labels...)) / 1e9
		w := float64(reg.CounterValue("pfs_disk_wait_ns_total", labels...)) / 1e9
		if tier == "hdd" {
			ps.HDDBusy, ps.HDDWait = ps.HDDBusy+b, ps.HDDWait+w
		} else {
			ps.SSDBusy, ps.SSDWait = ps.SSDBusy+b, ps.SSDWait+w
		}
		busy = append(busy, b)
	}
	var sum, most float64
	for _, b := range busy {
		sum += b
		most = math.Max(most, b)
	}
	if sum > 0 {
		ps.Imbalance = most / (sum / float64(len(busy)))
	}
	ps.Retries = reg.CounterValue("pfs_fault_retries_total")
	ps.MDSLookups = reg.CounterValue("pfs_mds_lookups_total")
	ps.Ops = reg.CounterValue("pfs_op_total", obs.T("op", "pfs.write")) +
		reg.CounterValue("pfs_op_total", obs.T("op", "pfs.read"))
	return ps
}

func dispatchNoops(seed int64, n int) {
	e := sim.NewEngine(seed)
	noop := func(any, sim.Time, sim.Time) {}
	for i := 0; i < n; {
		for j := 0; j < 4096 && i < n; j, i = j+1, i+1 {
			e.ScheduleCall(sim.Duration(j%64)*sim.Microsecond, noop, nil)
		}
		e.Run()
	}
}

// diskOp is one sub-request as a server's device sees it.
type diskOp struct {
	server, file int32
	op           device.Op
	local, size  int64
}

type mapStats struct {
	ns, allocs, bytes float64
	subreqs           int
	disk              []diskOp
}

// entry is one placed region: the file's byte range and its stripe pair.
type entry struct {
	off, end int64
	h, s     int64
}

// placed lists the regions the replay's file was placed with: the plan's
// RST, or one open-ended region for a fixed layout.
func (b *bench) placed(plan *harl.Plan) []entry {
	if b.fixed != nil {
		return []entry{{off: 0, end: math.MaxInt64, h: b.fixed.H, s: b.fixed.S}}
	}
	var es []entry
	for _, e := range plan.RST.Entries {
		es = append(es, entry{off: e.Offset, end: e.End, h: e.H, s: e.S})
	}
	es[len(es)-1].end = math.MaxInt64
	return es
}

// mapReplay calls Striping.Map for every captured pfs call with the
// striping of the physical file it went to.
func mapReplay(b *bench, tb *cluster.Testbed, plan *harl.Plan, c *capture) (*mapStats, error) {
	h, s := tb.FS.CountRoles()
	byFile := map[string]layout.Striping{}
	if b.fixed != nil {
		byFile[b.file] = *b.fixed
	} else {
		r2f := harl.BuildR2F(b.file, &plan.RST)
		for i, e := range plan.RST.Entries {
			byFile[r2f.File(i)] = layout.Striping{M: h, N: s, H: e.H, S: e.S}
		}
	}
	sts := make([]layout.Striping, len(c.pfsOps))
	for i, op := range c.pfsOps {
		st, ok := byFile[c.name[op.file]]
		if !ok {
			return nil, fmt.Errorf("pfs call on unknown file %q", c.name[op.file])
		}
		sts[i] = st
	}
	ms := &mapStats{}
	for i, op := range c.pfsOps {
		for _, sub := range sts[i].Map(op.off, op.size) {
			ms.disk = append(ms.disk, diskOp{server: int32(sub.Server), file: op.file, op: op.op, local: sub.Local, size: sub.Size})
		}
	}
	ms.subreqs = len(ms.disk)
	var sink int
	ms.ns, ms.allocs, ms.bytes = timeLoop(float64(len(c.pfsOps)), func() {
		for i, op := range c.pfsOps {
			sink += len(sts[i].Map(op.off, op.size))
		}
	})
	runtime.KeepAlive(sink)
	return ms, nil
}

// transferReplay moves every captured transfer on a fresh network and
// returns the network's transfer count.
func transferReplay(seed int64, cfg netsim.Config, c *capture) uint64 {
	e := sim.NewEngine(seed)
	net := netsim.MustNew(e, cfg)
	nodes := make([]*netsim.Node, len(c.name))
	node := func(i int32) *netsim.Node {
		if nodes[i] == nil {
			nodes[i] = net.AddNode(c.name[i])
		}
		return nodes[i]
	}
	for i := 0; i < len(c.xfers); {
		for j := 0; j < 4096 && i < len(c.xfers); j, i = j+1, i+1 {
			x := c.xfers[i]
			net.Transfer(node(x.from), node(x.to), x.size, nil)
		}
		e.Run()
	}
	return net.Transfers
}

// maxNodeUtil is the busiest network lane of the traced replay.
func maxNodeUtil(tb *cluster.Testbed, c *capture) float64 {
	var most float64
	for _, x := range c.xfers {
		for _, id := range []int32{x.from, x.to} {
			if nd := tb.Net.Node(c.name[id]); nd != nil {
				most = math.Max(most, math.Max(nd.TxUtilization(), nd.RxUtilization()))
			}
		}
	}
	return most
}

func serviceReplay(seed int64, servers []*pfs.Server, ops []diskOp) {
	devs := make([]*device.Device, len(servers))
	for i, s := range servers {
		devs[i] = device.MustNew(s.Dev.Profile())
	}
	rng := rand.New(rand.NewSource(seed))
	for _, op := range ops {
		devs[op.server].ServiceTime(op.op, op.local, op.size, rng)
	}
}

// storeReplay writes the workload's disk ops into per-object page stores
// and reads them back, up to storeBudget bytes each way, and returns the
// bytes it moved.
func storeReplay(ops []diskOp) int64 {
	stores := map[[2]int32]*device.Store{}
	var buf []byte
	var total int64
	for _, phase := range []device.Op{device.Write, device.Read} {
		var moved int64
		for _, op := range ops {
			if op.op != phase || moved >= storeBudget {
				continue
			}
			moved += op.size
			if int64(len(buf)) < op.size {
				buf = make([]byte, op.size)
			}
			key := [2]int32{op.server, op.file}
			st := stores[key]
			if st == nil {
				st = device.NewStore()
				stores[key] = st
			}
			if phase == device.Write {
				st.WriteAt(buf[:op.size], op.local)
			} else {
				st.ReadAt(buf[:op.size], op.local)
			}
		}
		total += moved
	}
	return total
}

// entryOf returns the placed region holding off.
func entryOf(es []entry, off int64) int {
	return sort.Search(len(es)-1, func(i int) bool { return es[i].end > off })
}

func evaluators(p cost.Params, es []entry) ([]*cost.Evaluator, error) {
	evs := make([]*cost.Evaluator, len(es))
	for i, e := range es {
		ev, err := p.NewEvaluator(e.h, e.s)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return evs, nil
}

// evalReplay costs every traced record under its region's chosen pair,
// with fresh evaluators as the planner would start with.
func evalReplay(p cost.Params, es []entry, records []trace.Record) {
	evs, err := evaluators(p, es)
	if err != nil {
		panic(err) // the pairs come from a validated RST
	}
	for _, r := range records {
		i := entryOf(es, r.Offset)
		evs[i].RequestCost(r.Op, r.Offset-es[i].off, r.Size)
	}
}

// predictionError compares, per placed region, the cost model's mean
// predicted request time with the mean virtual latency the harness
// measured for the requests the file received there, and returns the
// mean over regions of |predicted - simulated| / simulated.
func predictionError(p cost.Params, es []entry, ops []sample, out io.Writer) (float64, error) {
	evs, err := evaluators(p, es)
	if err != nil {
		return 0, err
	}
	pred := make([]float64, len(es))
	simul := make([]float64, len(es))
	n := make([]int, len(es))
	for _, op := range ops {
		i := entryOf(es, op.off)
		pred[i] += evs[i].RequestCost(op.op, op.off-es[i].off, op.size)
		simul[i] += op.lat.Seconds()
		n[i]++
	}
	var sum float64
	var regions int
	for i := range es {
		if n[i] == 0 || simul[i] == 0 {
			continue
		}
		e := math.Abs(pred[i]-simul[i]) / simul[i]
		fmt.Fprintf(out, "cost region %d (h %d, s %d): %d requests, predicted mean %.6g s, simulated mean %.6g s, error %.4f\n",
			i, es[i].h, es[i].s, n[i], pred[i]/float64(n[i]), simul[i]/float64(n[i]), e)
		sum += e
		regions++
	}
	if regions == 0 {
		return 0, fmt.Errorf("no timed requests to judge the cost model on")
	}
	return sum / float64(regions), nil
}
