package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/monitor"
	"harl/internal/mpiio"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/telemetry"
)

// sample is one timed operation: issue to completion on the virtual
// clock, taken in the harness's own callbacks.
type sample struct {
	op        device.Op
	off, size int64
	lat       sim.Duration
}

// opLog counts and times one replay's operations from outside the
// program: every callback error is a failed operation, and acknowledged
// bytes are checked against issued bytes per phase.
type opLog struct {
	e *sim.Engine
	// calls are the workload's MPI-IO calls (pfs calls in scale_write,
	// whole collectives in btio_verify); their latencies are the sim_op_*
	// metrics.
	calls []sample
	// fileOps are the requests the HARL file receives, which the cost
	// model predicts; nil when they are the calls themselves.
	fileOps []sample

	attempted, failed int
	issued, acked     [2]int64 // bytes, by device.Op
	span              [2]sim.Duration
	verifyErr         error
}

func newOpLog(e *sim.Engine) *opLog { return &opLog{e: e} }

// phase issues every stream's requests closed-loop — a stream sends its
// next request only when the previous one has completed — and calls next
// once every stream is done, adding the phase's virtual span.
func (lg *opLog) phase(op device.Op, streams [][]req, issue func(stream int, r req, done func(error)), next func()) {
	start := lg.e.Now()
	left := 0
	for _, s := range streams {
		if len(s) > 0 {
			left++
		}
	}
	finish := func() {
		lg.span[op] += lg.e.Now().Sub(start)
		next()
	}
	if left == 0 {
		finish()
		return
	}
	for si, s := range streams {
		if len(s) == 0 {
			continue
		}
		si, s := si, s
		var step func(i int)
		step = func(i int) {
			r := s[i]
			t0 := lg.start(op, r)
			issue(si, r, func(err error) {
				lg.record(op, r, t0, err)
				if i+1 < len(s) {
					step(i + 1)
				} else if left--; left == 0 {
					finish()
				}
			})
		}
		step(0)
	}
}

func (lg *opLog) start(op device.Op, r req) sim.Time {
	lg.attempted++
	lg.issued[op] += r.size
	return lg.e.Now()
}

func (lg *opLog) record(op device.Op, r req, t0 sim.Time, err error) {
	if err != nil {
		lg.failed++
	} else {
		lg.acked[op] += r.size
	}
	lg.calls = append(lg.calls, sample{op: op, off: r.off, size: r.size, lat: lg.e.Now().Sub(t0)})
}

// timedFile times the requests a file receives (the aggregators' file
// requests under collective I/O) without changing them.
type timedFile struct {
	mpiio.File
	lg *opLog
}

func (t *timedFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	t0 := t.lg.e.Now()
	t.File.WriteAt(rank, off, data, func(err error) {
		t.lg.fileOps = append(t.lg.fileOps, sample{op: device.Write, off: off, size: int64(len(data)), lat: t.lg.e.Now().Sub(t0)})
		done(err)
	})
}

func (t *timedFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	t0 := t.lg.e.Now()
	t.File.ReadAt(rank, off, size, func(data []byte, err error) {
		t.lg.fileOps = append(t.lg.fileOps, sample{op: device.Read, off: off, size: size, lat: t.lg.e.Now().Sub(t0)})
		done(data, err)
	})
}

// modelOps returns the requests the cost model is judged on.
func (lg *opLog) modelOps() []sample {
	if lg.fileOps != nil {
		return lg.fileOps
	}
	return lg.calls
}

// check reports the first failed output check of the replay.
func (lg *opLog) check() error {
	switch {
	case lg.attempted == 0:
		return fmt.Errorf("no operations issued")
	case lg.failed > 0:
		return fmt.Errorf("%d of %d operations failed", lg.failed, lg.attempted)
	case lg.verifyErr != nil:
		return lg.verifyErr
	}
	for op, name := range []string{"read", "write"} {
		if lg.acked[op] != lg.issued[op] {
			return fmt.Errorf("%s phase acknowledged %d of %d bytes", name, lg.acked[op], lg.issued[op])
		}
	}
	return nil
}

// virt is everything a replay reports on the virtual clock. Under a fixed
// seed it repeats exactly, whatever the host does.
type virt struct {
	WriteMiBps, ReadMiBps float64
	P50ms, P99ms          float64
	Samples               int
	Events                uint64
}

const mib = 1 << 20

func (lg *opLog) virtual(events uint64) virt {
	lat := make([]float64, len(lg.calls))
	for i, s := range lg.calls {
		lat[i] = float64(s.lat) / float64(sim.Millisecond)
	}
	sort.Float64s(lat)
	return virt{
		WriteMiBps: mibps(lg.issued[device.Write], lg.span[device.Write]),
		ReadMiBps:  mibps(lg.issued[device.Read], lg.span[device.Read]),
		P50ms:      rankQuantile(lat, 0.50),
		P99ms:      rankQuantile(lat, 0.99),
		Samples:    len(lat),
		Events:     events,
	}
}

func mibps(bytes int64, span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / mib / span.Seconds()
}

// rankQuantile is the nearest-rank quantile of sorted values.
func rankQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// mode selects what a replay attaches to its testbed.
type mode int

const (
	bare     mode = iota
	observed      // the always-on observer stack
	traced        // registry plus a span capture for the layer replays
)

// replay is one measured replay on a fresh testbed.
type replay struct {
	tb      *cluster.Testbed
	lg      *opLog
	host    time.Duration // CPU time of the engine run
	mallocs uint64        // heap allocations during the engine run
	events  uint64
	xfers   uint64
	reg     *obs.Registry
	tel     *telemetry.T
	capture *capture
}

// run replays the workload once under plan. The testbed is built and the
// file placed before timing starts; the timed phase is the engine run
// that issues and completes every request.
func (b *bench) run(in *inputs, plan *harl.Plan, m mode) (*replay, error) {
	tb, err := b.newBed()
	if err != nil {
		return nil, err
	}
	rp := &replay{tb: tb}
	if m == observed {
		if rp.tel, rp.reg, err = attachObservers(tb, b.seed); err != nil {
			return nil, err
		}
	}
	drive, err := b.open(tb, in, plan, m == observed)
	if err != nil {
		return nil, err
	}
	if m == traced {
		rp.reg, rp.capture = obs.NewRegistry(), newCapture()
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, rp.capture), rp.reg)
	}
	rp.lg = newOpLog(tb.Engine)
	ev0, x0 := tb.Engine.Processed, tb.Net.Transfers
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := cpuTime()
	drive(rp.lg)
	tb.Engine.Run()
	rp.host = cpuTime() - t0
	runtime.ReadMemStats(&ms)
	rp.mallocs = ms.Mallocs - m0
	rp.events, rp.xfers = tb.Engine.Processed-ev0, tb.Net.Transfers-x0
	if rp.reg != nil {
		tb.FS.SyncMetrics()
	}
	if rp.tel != nil {
		if ss := tb.FS.Sketches(); ss != nil {
			ss.Flush()
		}
		if err := rp.tel.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
	}
	return rp, rp.lg.check()
}

// attachObservers wires the always-on observer stack before the file is
// placed: a streaming tracer feeding the telemetry recorder and SLO
// engine, the metrics registry, and the sketch layer on the file system
// and the network.
func attachObservers(tb *cluster.Testbed, seed int64) (*telemetry.T, *obs.Registry, error) {
	tel, err := telemetry.New(telemetry.Config{
		Seed:      seed,
		RingSpans: 512,
		Objectives: []telemetry.Objective{
			{Name: "op-latency", Kind: telemetry.KindLatency, Target: 0.99, Limit: 5, Window: 10 * sim.Second},
			{Name: "availability", Kind: telemetry.KindAvailability, Target: 0.999, Window: 10 * sim.Second},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	tr := obs.NewStreamTracer(tb.Engine, tel)
	tb.FS.Instrument(tr, reg)
	ss := obs.NewSketchSet(tb.Engine, obs.SketchConfig{})
	tb.FS.AttachSketches(ss)
	ss.AttachTracer(tr)
	return tel, reg, nil
}

// attachMonitor puts the online workload monitor on a HARL file.
func attachMonitor(tb *cluster.Testbed, f *mpiio.HARLFile, plan *harl.Plan, params cost.Params) error {
	mon, err := monitor.New(tb.Engine, plan.Fingerprint, params, monitor.Config{})
	if err != nil {
		return err
	}
	if err := f.AttachMonitor(mon); err != nil {
		return err
	}
	tb.FS.SetTierObserver(mon)
	mon.AttachTracer(tb.FS.Tracer())
	return nil
}

// capture keeps, from the traced replay's span stream, the inputs the
// layer replays need: every pfs call, every network transfer, and the
// count of disk services.
type capture struct {
	names  map[string]int32
	name   []string
	pfsOps []pfsOp
	xfers  []xferOp
	disk   int
	spans  int
	err    error
}

type pfsOp struct {
	file      int32
	op        device.Op
	off, size int64
}

type xferOp struct {
	from, to int32
	size     int64
}

func newCapture() *capture { return &capture{names: map[string]int32{}} }

func (c *capture) intern(s string) int32 {
	id, ok := c.names[s]
	if !ok {
		id = int32(len(c.name))
		c.names[s] = id
		c.name = append(c.name, s)
	}
	return id
}

// OnSpan implements obs.SpanSink.
func (c *capture) OnSpan(s obs.Span) {
	c.spans++
	switch s.Name {
	case "pfs.write", "pfs.read":
		op := device.Read
		if s.Name == "pfs.write" {
			op = device.Write
		}
		file, _ := s.Tag("file")
		c.pfsOps = append(c.pfsOps, pfsOp{file: c.intern(file), op: op, off: c.intTag(s, "off"), size: c.intTag(s, "bytes")})
	case "xfer":
		src, _ := s.Tag("src")
		dst, _ := s.Tag("dst")
		c.xfers = append(c.xfers, xferOp{from: c.intern(src), to: c.intern(dst), size: c.intTag(s, "bytes")})
	case "disk.read", "disk.write":
		c.disk++
	}
}

func (c *capture) intTag(s obs.Span, key string) int64 {
	v, _ := s.Tag(key)
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("span %s: tag %s=%q: %w", s.Name, key, v, err)
	}
	return n
}
