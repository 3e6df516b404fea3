package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"harl/internal/cost"
	"harl/internal/harl"
)

// minIters is the fewest iterations a run measures, however short
// --seconds is.
const minIters = 3

// iterations is how many iterations a run of seconds measures. The count
// depends only on seconds and the workload, never on how fast the host
// or the program is, so two runs with the same --seconds always compare
// the same amount of work.
func (b *bench) iterations(seconds float64) int {
	return max(minIters, int(math.Round(seconds/b.iterSeconds)))
}

// cpuTime is the CPU time the process has used so far, on all its
// threads. Host phases are timed by it rather than by the wall clock, so
// time the host gives to other processes is not counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// iteration is one or more set-ups, one or more plans and one replay. It
// keeps no testbed, so that one iteration's heap does not count into the
// next one's. Host times are CPU seconds scaled to the nominal host
// (hostspeed.go).
type iteration struct {
	plan      *harl.Plan
	setupS    []float64 // every set-up of the iteration
	planS     []float64 // every Analyze call of the iteration
	replayS   float64   // the replay's engine run
	calls     int
	attempted int
	failed    int
	allocMiB  float64 // allocated during the first plan and the replay
	liveMiB   float64 // heap in use after the replay, testbed reachable
	v         virt
}

// iterate sets the workload up b.setups times, plans it b.plans times
// and replays the first plan once, returning the first set-up's inputs
// with the iteration. hc brackets each timed step with reference runs.
// prof, when not nil, receives the first plan's search profile.
func (b *bench) iterate(hc *hostClock, m mode, prof *harl.SearchProfile) (*inputs, *iteration, error) {
	it := &iteration{}
	var in *inputs
	for k := 0; k < b.setups; k++ {
		runtime.GC()
		t0 := cpuTime()
		next, err := b.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		it.setupS = append(it.setupS, (cpuTime() - t0).Seconds())
		if in == nil {
			in = next
		}
	}
	hc.scaleAll(it.setupS)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := -float64(ms.TotalAlloc)
	plan, d, err := timedPlan(in, prof)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms)
	alloc += float64(ms.TotalAlloc)
	it.plan, it.planS = plan, append(it.planS, d*hc.scale())
	if err := b.checkPlan(it.plan); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms)
	alloc -= float64(ms.TotalAlloc)
	rp, err := b.run(in, it.plan, m)
	if rp == nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	host := rp.host.Seconds()
	it.calls, it.attempted, it.failed = len(rp.lg.calls), rp.lg.attempted, rp.lg.failed
	it.v = rp.lg.virtual(rp.events)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	it.allocMiB = (alloc + float64(ms.TotalAlloc)) / mib
	it.liveMiB = float64(ms.HeapAlloc) / mib
	runtime.KeepAlive(rp.tb)
	if err != nil {
		return in, it, fmt.Errorf("replay: %w", err)
	}
	// The reference run that scales the replay starts with the testbed
	// unreachable, as every other reference run does.
	it.replayS = host * hc.scale()

	var more []float64
	for k := 1; k < b.plans; k++ {
		runtime.GC()
		if _, d, err = timedPlan(in, nil); err != nil {
			return in, it, err
		}
		more = append(more, d)
	}
	if len(more) > 0 {
		hc.scaleAll(more)
		it.planS = append(it.planS, more...)
	}
	return in, it, nil
}

// timedPlan runs the Analysis Phase on the set-up's trace and returns
// the plan with the call's CPU seconds.
func timedPlan(in *inputs, prof *harl.SearchProfile) (*harl.Plan, float64, error) {
	pl := planner(in)
	pl.Profile = prof
	t0 := cpuTime()
	plan, err := pl.Analyze(in.trace)
	if err != nil {
		return nil, 0, fmt.Errorf("plan: %w", err)
	}
	return plan, (cpuTime() - t0).Seconds(), nil
}

// checkPlan checks the planner's output: the RST validates, and the
// workload's known region structure is found.
func (b *bench) checkPlan(plan *harl.Plan) error {
	if err := plan.RST.Validate(); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if b.regions > 0 && len(plan.RST.Entries) != b.regions {
		return fmt.Errorf("plan: %d regions, want %d", len(plan.RST.Entries), b.regions)
	}
	return nil
}

// e2eMode is the replay mode whose numbers are the end-to-end metrics.
func (b *bench) e2eMode() mode {
	if b.observed {
		return observed
	}
	return bare
}

// loop runs the workload's iterations for a run of seconds, counting
// operations into res, and returns the last iteration's inputs. Every
// iteration must set up the same inputs and report the same virtual
// results.
func (b *bench) loop(seconds float64, res *result, prof *harl.SearchProfile, out io.Writer) (*inputs, []*iteration, error) {
	var its []*iteration
	var in *inputs
	var first cost.Params
	var records int
	hc := newHostClock()
	defer func() {
		q := quartiles(hc.refs)
		fmt.Fprintf(out, "reference kernel %.6g s; q1 %.6g q3 %.6g n %d (nominal %g s)\n", q[1], q[0], q[2], len(hc.refs), refNominal)
	}()
	for n := b.iterations(seconds); len(its) < n; {
		var p *harl.SearchProfile
		if len(its) == 0 {
			p = prof
		}
		next, it, err := b.iterate(hc, b.e2eMode(), p)
		if it != nil {
			res.Attempted += it.attempted
			res.Failed += it.failed
		}
		if err != nil {
			return nil, its, err
		}
		in = next
		if len(its) == 0 {
			first, records = in.params, in.trace.Len()
		} else if in.params != first || in.trace.Len() != records {
			return nil, its, fmt.Errorf("set-up %d produced different inputs from set-up 0", len(its))
		} else if it.v != its[0].v {
			return nil, its, fmt.Errorf("replay %d reported %+v on the virtual clock, replay 0 %+v", len(its), it.v, its[0].v)
		}
		its = append(its, it)
	}
	return in, its, nil
}

// measure is the untraced run: it prints every end-to-end metric with the
// quartiles of the values it is the median of, and returns them.
func measure(b *bench, seconds float64, out io.Writer) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	_, its, err := b.loop(seconds, res, nil, out)
	if err != nil {
		return res, err
	}
	var setupS, planS, reqs, alloc, live []float64
	for _, it := range its {
		setupS = append(setupS, it.setupS...)
		planS = append(planS, it.planS...)
		reqs = append(reqs, float64(it.calls)/it.replayS)
		alloc = append(alloc, it.allocMiB)
		live = append(live, it.liveMiB)
	}
	v := its[0].v
	fmt.Fprintf(out, "workload %s seed %d: %d iterations, %d sim_op samples per replay, %d events per replay\n",
		b.name, b.seed, len(its), v.Samples, v.Events)
	report(out, res, "setup_s", "s", setupS)
	report(out, res, "plan_s", "s", planS)
	report(out, res, "reqs_per_s", "1/s", reqs)
	report(out, res, "alloc_mb", "MiB", alloc)
	report(out, res, "live_heap_mb", "MiB", live)
	res.Metrics["sim_write_mbps"] = metric{v.WriteMiBps, "MiB/s"}
	res.Metrics["sim_read_mbps"] = metric{v.ReadMiBps, "MiB/s"}
	res.Metrics["sim_op_p50_ms"] = metric{v.P50ms, "ms"}
	res.Metrics["sim_op_p99_ms"] = metric{v.P99ms, "ms"}
	res.Correct = true
	return res, nil
}

// report stores the median of xs as a metric and prints its quartiles
// and the values it was taken from.
func report(out io.Writer, res *result, name, unit string, xs []float64) {
	q := quartiles(xs)
	fmt.Fprintf(out, "%s %.6g %s; q1 %.6g q3 %.6g n %d:", name, q[1], unit, q[0], q[2], len(xs))
	for _, x := range xs {
		fmt.Fprintf(out, " %.6g", x)
	}
	fmt.Fprintln(out)
	res.Metrics[name] = metric{q[1], unit}
}

// quartiles returns the three cut points of xs by the same method as
// Python's statistics.quantiles(xs, n=4), the default "exclusive" one.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
