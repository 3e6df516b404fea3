package experiments

import (
	"fmt"
	"strings"

	"harl/internal/cluster"
	"harl/internal/diagnose"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/telemetry"
)

// Telemetry experiments: the always-on pipeline (flight recorder + SLO
// burn-rate engine + incident bundles) attached to the replicated chaos
// scenarios through Options.Attach. The attachment is a pure observer —
// the differential tests below the drivers assert an attached run stays
// event-for-event identical to a bare one — so SLO alerting reads the
// exact protocol behavior the replication suite measures.

// sloHorizon is the fault-window horizon the SLO windows are sized
// against — the same sizing chaosConfig applies to the fault schedule.
func sloHorizon(o Options) sim.Duration {
	return chaosConfig(chaosFileSize(o.FileSize), 0).Horizon
}

// SLOObjectives is the default objective set for a chaos run, its
// burn-rate windows sized to the fault horizon so sustained damage
// inside one fault episode fires while a single blip does not.
func SLOObjectives(o Options) []telemetry.Objective {
	horizon := sloHorizon(o)
	return []telemetry.Objective{
		{
			Name: "write-availability", Kind: telemetry.KindAvailability,
			Target: 0.999, Window: horizon, Burn: 4, MinSamples: 8,
		},
		{
			Name: "op-latency", Kind: telemetry.KindLatency,
			Target: 0.99, Limit: o.RequestTimeout.Seconds(),
			Window: horizon, Burn: 4, MinSamples: 8,
		},
		{
			Name: "catchup-lag", Kind: telemetry.KindCatchUpLag,
			Target: 0.9, Limit: 8, Window: horizon, Burn: 2, MinSamples: 4,
		},
		{
			Name: "replica-staleness", Kind: telemetry.KindStaleness,
			Target: 0.9, Window: horizon, Burn: 2, MinSamples: 2,
		},
	}
}

// SLORun is one telemetry-attached replicated chaos run.
type SLORun struct {
	// Result is the underlying replication run — identical to what the
	// bare driver measures, by the passive-observer contract.
	Result ReplResult
	// Alerts are the burn-rate violations in firing order.
	Alerts []telemetry.Alert
	// Bundles are the captured incident bundles (written under the
	// bundle root when one was given).
	Bundles []*telemetry.Bundle
	// Recorder is the flight-recorder occupancy at run end.
	Recorder telemetry.RecorderStats
	// Snapshot is the final Prometheus metrics export.
	Snapshot string
}

// RunSLO executes the replicated IOR chaos scenario with the telemetry
// pipeline attached: a streaming tracer feeds the flight recorder and
// SLO engine, and every alert freezes the recorder window into an
// incident bundle under bundleRoot (kept in memory when bundleRoot is
// empty). r=2 with faults under the given shape — the scenario whose
// availability and catch-up objectives have something to say.
func RunSLO(o Options, shape ReplShape, bundleRoot string) (*SLORun, error) {
	var tel *telemetry.T
	var reg *obs.Registry
	var telErr error
	var snapshot func() string

	run := o.withAttach(func(tb *cluster.Testbed) {
		t, err := telemetry.New(telemetry.Config{
			Seed:       o.Seed,
			RingSpans:  512,
			Objectives: SLOObjectives(o),
			BundleRoot: bundleRoot,
		})
		if err != nil {
			telErr = err
			return
		}
		tel = t
		reg = obs.NewRegistry()
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, tel), reg)
		snapshot = func() string {
			tb.FS.SyncMetrics()
			var sb strings.Builder
			if err := reg.WriteProm(&sb, tb.Engine.Now()); err != nil {
				return "# export failed: " + err.Error() + "\n"
			}
			return sb.String()
		}
		tel.SetSnapshot(snapshot)
		attachDoctor(tel, tb)
	})

	res, err := runReplIOR(run, o.clientPolicy(), 2, shape, true)
	if err != nil {
		return nil, err
	}
	if telErr != nil {
		return nil, telErr
	}
	if tel == nil {
		return nil, fmt.Errorf("telemetry: driver never attached the pipeline")
	}
	if err := tel.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: bundle write: %w", err)
	}
	return &SLORun{
		Result:   res,
		Alerts:   tel.Alerts(),
		Bundles:  tel.Bundles(),
		Recorder: tel.Recorder().Stats(),
		Snapshot: snapshot(),
	}, nil
}

// attachDoctor binds the sketch layer and anomaly detector to the
// testbed and installs a diagnosis renderer on the telemetry pipeline,
// so every incident bundle carries a doctor.txt diagnosing the run up
// to the capture instant. Both sides stay passive observers.
func attachDoctor(tel *telemetry.T, tb *cluster.Testbed) {
	ss := obs.NewSketchSet(tb.Engine, obs.SketchConfig{})
	det := diagnose.NewDetector(ss, diagnose.Config{})
	tb.FS.AttachSketches(ss)
	tel.SetDoctor(func(sim.Time) string {
		return det.Diagnose(diagnose.Correlates{
			CatchUps:   int(tb.FS.Repl.CatchUps),
			Promotions: int(tb.FS.Repl.Promotions),
		}).Render()
	})
}

// RunRecord executes the fault-free replicated scenario with the
// recorder attached and freezes one manual bundle at run end — the
// `harlctl record` path: no alert needed, just "give me the recent
// past".
func RunRecord(o Options, bundleRoot string) (*SLORun, *telemetry.Bundle, error) {
	var tel *telemetry.T
	var reg *obs.Registry
	var telErr error
	var snapshot func() string
	var end func() sim.Time

	ro := o.withAttach(func(tb *cluster.Testbed) {
		t, terr := telemetry.New(telemetry.Config{
			Seed:      o.Seed,
			RingSpans: 512,
		})
		if terr != nil {
			telErr = terr
			return
		}
		tel = t
		reg = obs.NewRegistry()
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, tel), reg)
		snapshot = func() string {
			tb.FS.SyncMetrics()
			var sb strings.Builder
			if werr := reg.WriteProm(&sb, tb.Engine.Now()); werr != nil {
				return "# export failed: " + werr.Error() + "\n"
			}
			return sb.String()
		}
		tel.SetSnapshot(snapshot)
		attachDoctor(tel, tb)
		end = tb.Engine.Now
	})
	res, err := runReplIOR(ro, o.clientPolicy(), 2, ReplShapeCrash, false)
	if err != nil {
		return nil, nil, err
	}
	if telErr != nil {
		return nil, nil, telErr
	}
	b := tel.CaptureNow("record", end())
	if bundleRoot != "" {
		if _, err := b.WriteDir(bundleRoot); err != nil {
			return nil, nil, err
		}
	}
	sr := &SLORun{
		Result:   res,
		Alerts:   tel.Alerts(),
		Bundles:  tel.Bundles(),
		Recorder: tel.Recorder().Stats(),
		Snapshot: snapshot(),
	}
	return sr, b, nil
}

// FigSLO is the chaos-alert table: each replica-targeted shape run with
// the SLO pipeline attached, reporting how fast the burn-rate alerting
// saw the damage and what the incident bundles captured.
func FigSLO(o Options) (*Table, error) {
	// Quick scale shrinks the fault horizon below the traffic span, so
	// double-crash outages can miss the writes entirely; the alerting
	// figure keeps the default chaos file size.
	if o.FileSize < 2<<30 {
		o.FileSize = 2 << 30
	}
	t := &Table{
		Title: fmt.Sprintf("SLO burn-rate alerting under replica-targeted faults (chaos seed %d)", o.ChaosSeed),
		Columns: []string{
			"alerts", "first alert ms", "avail alerts", "lag alerts",
			"bundles", "bundle spans", "integrity",
		},
	}
	for _, shape := range ReplShapes() {
		run, err := RunSLO(o, shape, "")
		if err != nil {
			return nil, fmt.Errorf("slo %q: %w", shape, err)
		}
		if run.Result.IntegrityViolations > 0 {
			return nil, fmt.Errorf("slo %q: %d acked ranges failed verification", shape, run.Result.IntegrityViolations)
		}
		firstMs := 0.0
		if len(run.Alerts) > 0 {
			firstMs = float64(run.Alerts[0].At) / float64(sim.Millisecond)
		}
		var avail, lag, spans int
		for _, a := range run.Alerts {
			switch a.Kind {
			case telemetry.KindAvailability:
				avail++
			case telemetry.KindCatchUpLag:
				lag++
			}
		}
		for _, b := range run.Bundles {
			spans += len(b.Spans)
		}
		t.Add(string(shape),
			float64(len(run.Alerts)), firstMs, float64(avail), float64(lag),
			float64(len(run.Bundles)), float64(spans),
			float64(run.Result.IntegrityViolations))
	}
	return t, nil
}
