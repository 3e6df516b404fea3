package experiments

import (
	"runtime"
	"time"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/telemetry"
)

// BenchStats are the repo's tracked benchmark numbers (see cmd/benchguard
// and BENCH_PR5.json): the virtual end-to-end times of the quick IOR and
// BTIO runs — deterministic, so any change means the simulation's
// behavior changed — and the Analysis Phase's real wall-clock, which is
// machine-dependent and only guarded loosely.
type BenchStats struct {
	// IOREndSeconds is the virtual finishing time of the uninstrumented
	// HARL IOR baseline (the traceIOR workload).
	IOREndSeconds float64
	// BTIOEndSeconds is the virtual finishing time of a fixed-stripe BTIO
	// run at this option set's class.
	BTIOEndSeconds float64
	// AnalysisWallSeconds is the real time the Analysis Phase took on the
	// IOR trace.
	AnalysisWallSeconds float64
	// DriftEndSeconds is the virtual finishing time of the bare
	// (unmonitored) shifted drift scenario — the what-if engine's
	// baseline workload.
	DriftEndSeconds float64
	// ScaleHugeEndSeconds is the virtual finishing time of the
	// 1024-server / 1M-event ScaleHuge scenario (deterministic).
	ScaleHugeEndSeconds float64
	// ScaleHugeWallSeconds is the real time ScaleHuge's event loop took
	// (machine-dependent, slowdown-guarded only).
	ScaleHugeWallSeconds float64
	// EventsPerSecond is ScaleHuge's processed-event throughput — the
	// per-PR perf trajectory number `make bench` prints.
	EventsPerSecond float64
	// ReplR1WriteSeconds and ReplR2WriteSeconds are the virtual traffic
	// spans of the fault-free replication write benchmark at r=1 and
	// r=2; their ratio is the replicated-write overhead the snapshot
	// bounds.
	ReplR1WriteSeconds float64
	ReplR2WriteSeconds float64
	// ReplRecoverySeconds is the virtual catch-up time of a recovered
	// backup replaying a full overwrite pass it missed.
	ReplRecoverySeconds float64
	// SLOAlertSeconds is the virtual time of the first burn-rate alert
	// under the seeded double-crash schedule — deterministic, so it
	// guards both the fault schedule and the alerting windows.
	SLOAlertSeconds float64
	// RecorderOverheadRatio is the wall-clock ratio of the IOR replay
	// with the full telemetry pipeline attached over the bare replay —
	// the price of always-on recording (machine-dependent).
	RecorderOverheadRatio float64
	// RecorderAllocsPerSpan is the marginal heap allocations per
	// captured span the attached pipeline adds over the bare run.
	RecorderAllocsPerSpan float64
	// DoctorDetectSeconds is the virtual latency from the seeded
	// straggle injection to the doctor's confirmed diagnosis —
	// deterministic, so it pins both the probe workload and the
	// detector's hysteresis.
	DoctorDetectSeconds float64
	// SketchOverheadRatio is the wall-clock ratio of the IOR replay with
	// the sketch layer attached over the bare replay — the price of the
	// always-on tail-latency sketches (machine-dependent).
	SketchOverheadRatio float64
}

// BenchSnapshot measures the tracked benchmark numbers at the given
// scale. The virtual times are reproducible bit for bit from the options
// alone; the analysis wall-clock varies with the host.
func BenchSnapshot(o Options) (BenchStats, error) {
	var st BenchStats

	run, err := traceIOR(o, false)
	if err != nil {
		return st, err
	}
	st.IOREndSeconds = run.End.Sub(0).Seconds()

	// Analysis wall-clock over the same trace the IOR pipeline analyzed.
	params := run.Params
	tr := run.Config.Trace()
	t0 := time.Now()
	if _, err := (harl.Planner{Params: params, ChunkSize: o.ChunkSize, Parallelism: o.Parallelism}).Analyze(tr); err != nil {
		return st, err
	}
	st.AnalysisWallSeconds = time.Since(t0).Seconds()

	// Fixed-stripe BTIO at this option set's class.
	clusterCfg := cluster.Default()
	tb, err := o.testbed(scenario{cluster: clusterCfg})
	if err != nil {
		return st, err
	}
	cfg := o.BTIOClass(4)
	w, f, err := o.world(tb, cfg.Ranks, "btio", layout.Fixed(clusterCfg.HServers, clusterCfg.SServers, 64<<10))
	if err != nil {
		return st, err
	}
	if _, err := btio.Run(w, f, cfg); err != nil {
		return st, err
	}
	st.BTIOEndSeconds = tb.Engine.Now().Sub(0).Seconds()

	// Bare shifted drift run — the causal profiler's baseline scenario.
	drift, err := runDrift(o, true, false)
	if err != nil {
		return st, err
	}
	st.DriftEndSeconds = drift.End.Sub(0).Seconds()

	// ScaleHuge: the engine-scale scenario, timed on the host clock.
	huge, err := RunScaleHuge(o)
	if err != nil {
		return st, err
	}
	st.ScaleHugeEndSeconds = huge.EndSeconds
	st.ScaleHugeWallSeconds = huge.WallSeconds
	st.EventsPerSecond = huge.EventsPerSec

	// Replicated-write overhead (fault-free r=1 vs r=2) and the
	// catch-up time of a recovered backup — both virtual, deterministic.
	for _, rr := range []struct {
		r   int
		dst *float64
	}{{1, &st.ReplR1WriteSeconds}, {2, &st.ReplR2WriteSeconds}} {
		res, err := runReplIOR(o, o.clientPolicy(), rr.r, ReplShapeCrash, false)
		if err != nil {
			return st, err
		}
		*rr.dst = res.WriteSeconds
	}
	rec, err := RunReplRecovery(o)
	if err != nil {
		return st, err
	}
	st.ReplRecoverySeconds = rec.RecoverySeconds

	// First burn-rate alert under the seeded double-crash. Quick scale
	// shrinks the fault horizon below the traffic span, so the SLO run
	// keeps the default chaos file size (as the acceptance test does).
	so := o
	so.FileSize = 2 << 30
	slo, err := RunSLO(so, ReplShapeDoubleCrash, "")
	if err != nil {
		return st, err
	}
	if len(slo.Alerts) > 0 {
		st.SLOAlertSeconds = slo.Alerts[0].At.Sub(0).Seconds()
	}

	// Recorder overhead: the identical IOR replay bare and with the full
	// telemetry pipeline attached, on the host clock, plus the marginal
	// heap allocations per captured span.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	if _, err := traceIOR(o, false); err != nil {
		return st, err
	}
	bareWall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	bareAllocs := ms1.Mallocs - ms0.Mallocs

	var tel *telemetry.T
	ao := o.withAttach(func(tb *cluster.Testbed) {
		t, terr := telemetry.New(telemetry.Config{Seed: o.Seed, RingSpans: 512})
		if terr != nil {
			return
		}
		tel = t
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, t), obs.NewRegistry())
	})
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	if _, err := traceIOR(ao, false); err != nil {
		return st, err
	}
	attachedWall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if bareWall > 0 {
		st.RecorderOverheadRatio = attachedWall / bareWall
	}
	if tel != nil {
		if captured := tel.Recorder().Stats().Captured; captured > 0 {
			extra := float64(ms1.Mallocs-ms0.Mallocs) - float64(bareAllocs)
			if extra < 0 {
				extra = 0
			}
			st.RecorderAllocsPerSpan = extra / float64(captured)
		}
	}

	// Sketch overhead: the same IOR replay with the tail-latency sketch
	// layer attached, against the bare wall-clock measured above.
	sko := o.withAttach(func(tb *cluster.Testbed) {
		tb.FS.AttachSketches(obs.NewSketchSet(tb.Engine, obs.SketchConfig{}))
	})
	t0 = time.Now()
	if _, err := traceIOR(sko, false); err != nil {
		return st, err
	}
	if bareWall > 0 {
		st.SketchOverheadRatio = time.Since(t0).Seconds() / bareWall
	}

	// Doctor: virtual latency from straggle injection to confirmed
	// diagnosis in the straggler acceptance scenario.
	doc, err := RunDoctor(o, true)
	if err != nil {
		return st, err
	}
	st.DoctorDetectSeconds = doc.DetectSeconds

	return st, nil
}
