package main

import (
	"bytes"
	"fmt"
	"math"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/netsim"
	"harl/internal/pfs"
	"harl/internal/sim"
	"harl/internal/trace"
)

// req is one independent request of a closed-loop stream.
type req struct{ off, size int64 }

// inputs is what a workload's set-up produces: the calibrated cost model,
// the trace the planner analyzes, and, for the independent-I/O
// workloads, each stream's requests per phase.
type inputs struct {
	params cost.Params
	trace  *trace.Trace
	writes [][]req
	reads  [][]req
}

// driver schedules one replay's workload on a prepared testbed; the
// caller runs the engine.
type driver func(lg *opLog)

// bench is one workload at a fixed seed. It can be set up, planned and
// replayed any number of times; every replay runs on a fresh testbed.
type bench struct {
	name string
	seed int64
	// setup is the work paid before planning: cost calibration, workload
	// generation and, where the workload plans from a traced first pass,
	// that pass.
	setup func() (*inputs, error)
	// newBed builds a fresh replay testbed.
	newBed func() (*cluster.Testbed, error)
	// open places the replay's file on tb, untimed, and returns the
	// driver. observe attaches the workload monitor to a HARL file.
	open func(tb *cluster.Testbed, in *inputs, plan *harl.Plan, observe bool) (driver, error)
	// file names the replay's logical file, for mapping pfs files back
	// to the striping they use.
	file string
	// regions is the region count the plan must have; 0 leaves it open.
	regions int
	// observed marks the workload whose end-to-end replay carries the
	// always-on observer stack.
	observed bool
	// fixed, when set, is the layout the replay uses instead of the plan:
	// the planner still runs and is timed, but its table is not applied.
	fixed *layout.Striping
	// setups and plans are how many times an iteration sets up and
	// plans: more than once where one set-up or plan is short beside the
	// replay, so that each is timed often enough to give a steady median.
	setups, plans int
	// iterSeconds is about how long one iteration takes on a 2-vCPU
	// 2.1 GHz host; it turns --seconds into a fixed iteration count.
	iterSeconds float64
}

// planner is the Analysis Phase every workload runs. Parallelism is
// pinned to 1: the plan is the same at every setting, the search counts
// repeat exactly only at 1, and a serial planner's time does not depend
// on what else the second CPU of a small shared box is doing. The traced
// run profiles a parallel search separately for harl.shard_balance.
func planner(in *inputs) harl.Planner {
	return harl.Planner{Params: in.params, Parallelism: 1}
}

// --- scale_write ---------------------------------------------------------

// scaleShape sizes the scale_write workload.
type scaleShape struct {
	hdd, ssd, clients, writes int
	reqSize, stripe           int64
}

// scaleFull is the ScaleHuge shape: 1024 servers, 256 client streams of
// 400 sequential 256 KB requests on fixed 64 KB stripes, each stream
// writing its span and then reading it back.
var scaleFull = scaleShape{hdd: 768, ssd: 256, clients: 256, writes: 400, reqSize: 256 << 10, stripe: 64 << 10}

func newScaleWrite(seed int64, sh scaleShape) *bench {
	st := layout.Striping{M: sh.hdd, N: sh.ssd, H: sh.stripe, S: sh.stripe}
	b := &bench{name: "scale_write", seed: seed, file: "huge", fixed: &st,
		setups: 8, plans: 3, iterSeconds: 3.5}
	profiles := make([]device.Profile, 0, sh.hdd+sh.ssd)
	for i := 0; i < sh.hdd; i++ {
		profiles = append(profiles, device.DefaultHDD())
	}
	for i := 0; i < sh.ssd; i++ {
		profiles = append(profiles, device.DefaultSSD())
	}
	b.newBed = func() (*cluster.Testbed, error) {
		return cluster.NewCustom(profiles, netsim.GigabitEthernet(), seed)
	}
	b.setup = func() (*inputs, error) {
		// The workload does not plan from a traced pass, but standing the
		// cluster up is still part of what a user pays before planning.
		tb, err := b.newBed()
		if err != nil {
			return nil, err
		}
		if h, s := tb.FS.CountRoles(); h != sh.hdd || s != sh.ssd {
			return nil, fmt.Errorf("testbed has %d+%d servers, want %d+%d", h, s, sh.hdd, sh.ssd)
		}
		params, err := cost.Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(),
			sh.hdd, sh.ssd, cost.DefaultProbes, seed+100)
		if err != nil {
			return nil, err
		}
		// Each client owns a disjoint span of the shared file and streams
		// through it sequentially; the seed rotates where each client's
		// span sits so different seeds give different inputs.
		in := &inputs{params: params}
		span := int64(sh.writes) * sh.reqSize
		rot := int(seed%int64(sh.clients)+int64(sh.clients)) % sh.clients
		for c := 0; c < sh.clients; c++ {
			base := int64((c+rot)%sh.clients) * span
			var s []req
			for i := 0; i < sh.writes; i++ {
				s = append(s, req{off: base + int64(i)*sh.reqSize, size: sh.reqSize})
			}
			in.writes = append(in.writes, s)
		}
		in.reads = in.writes
		in.trace = streamTrace(in.writes, in.reads)
		return in, nil
	}
	b.open = func(tb *cluster.Testbed, in *inputs, _ *harl.Plan, _ bool) (driver, error) {
		handles := make([]*pfs.File, len(in.writes))
		var openErr error
		tb.Engine.Schedule(0, func() {
			tb.FS.NewClient("client0").Create(b.file, st, func(_ *pfs.File, err error) {
				if err != nil {
					openErr = err
					return
				}
				for i := range handles {
					i := i
					tb.FS.NewClient(fmt.Sprintf("client%d", i+1)).Open(b.file, func(h *pfs.File, err error) {
						if err != nil && openErr == nil {
							openErr = err
						}
						handles[i] = h
					})
				}
			})
		})
		tb.Engine.Run()
		if openErr != nil {
			return nil, openErr
		}
		return func(lg *opLog) {
			drivePhases(tb.Engine, lg, in, func(s int, r req, done func(error)) {
				handles[s].WriteZeros(r.off, r.size, done)
			}, func(s int, r req, done func(error)) {
				handles[s].ReadDiscard(r.off, r.size, done)
			})
		}, nil
	}
	return b
}

// streamTrace lays the streams' requests out as the trace records a
// tracing layer would collect, write phase first.
func streamTrace(writes, reads [][]req) *trace.Trace {
	tr := &trace.Trace{}
	ts := sim.Time(0)
	for _, ph := range []struct {
		op      device.Op
		streams [][]req
	}{{device.Write, writes}, {device.Read, reads}} {
		for r, s := range ph.streams {
			for _, q := range s {
				tr.Records = append(tr.Records, trace.Record{
					PID: 1000 + r, Rank: r, FD: 3, Op: ph.op,
					Offset: q.off, Size: q.size, Start: ts, End: ts + 1,
				})
				ts++
			}
		}
	}
	return tr
}

// --- multi_observed ------------------------------------------------------

// newMultiObserved is the paper's four-region modified IOR on the default
// 6 HDD + 2 SSD testbed, replayed with the observer stack attached.
func newMultiObserved(seed int64, mc ior.MultiConfig) *bench {
	mc.Seed = seed
	cfg := cluster.Default()
	cfg.Seed = seed
	b := &bench{name: "multi_observed", seed: seed, file: "ior", regions: len(mc.Regions), observed: true,
		setups: 2, plans: 1, iterSeconds: 2}
	b.newBed = func() (*cluster.Testbed, error) { return cluster.New(cfg) }
	b.setup = func() (*inputs, error) {
		in := &inputs{}
		in.writes, in.reads = rankStreams(mc.Trace(), mc.Ranks)
		tb, err := b.newBed()
		if err != nil {
			return nil, err
		}
		if in.params, err = tb.Calibrate(0); err != nil {
			return nil, err
		}
		w := mpiio.NewWorld(tb.FS, mc.Ranks, mc.RanksPerNode)
		f, err := createPlain(w, "ior", layout.Fixed(cfg.HServers, cfg.SServers, 64<<10))
		if err != nil {
			return nil, err
		}
		coll := trace.NewCollector()
		traced := w.Trace(f, coll)
		lg := newOpLog(tb.Engine)
		driveIndependent(tb.Engine, lg, in, traced)
		tb.Engine.Run()
		if err := lg.check(); err != nil {
			return nil, fmt.Errorf("traced first pass: %w", err)
		}
		in.trace = coll.Trace()
		return in, nil
	}
	b.open = func(tb *cluster.Testbed, in *inputs, plan *harl.Plan, observe bool) (driver, error) {
		w := mpiio.NewWorld(tb.FS, mc.Ranks, mc.RanksPerNode)
		f, err := createHARL(w, b.file, plan)
		if err != nil {
			return nil, err
		}
		if observe {
			if err := attachMonitor(tb, f, plan, in.params); err != nil {
				return nil, err
			}
		}
		return func(lg *opLog) { driveIndependent(tb.Engine, lg, in, f) }, nil
	}
	return b
}

// rankStreams regroups an IOR trace into per-rank request sequences for
// each phase, preserving each rank's order.
func rankStreams(tr *trace.Trace, ranks int) (writes, reads [][]req) {
	writes, reads = make([][]req, ranks), make([][]req, ranks)
	for _, r := range tr.Records {
		q := req{off: r.Offset, size: r.Size}
		if r.Op == device.Write {
			writes[r.Rank] = append(writes[r.Rank], q)
		} else {
			reads[r.Rank] = append(reads[r.Rank], q)
		}
	}
	return writes, reads
}

// drivePhases schedules the write phase then the read phase, every
// stream closed-loop.
func drivePhases(e *sim.Engine, lg *opLog, in *inputs, write, read func(stream int, r req, done func(error))) {
	e.Schedule(0, func() {
		lg.phase(device.Write, in.writes, write, func() {
			lg.phase(device.Read, in.reads, read, func() {})
		})
	})
}

// driveIndependent drives each rank through the file's phantom
// (payload-free) operations.
func driveIndependent(e *sim.Engine, lg *opLog, in *inputs, f mpiio.PhantomFile) {
	drivePhases(e, lg, in, func(rank int, r req, done func(error)) {
		f.WriteZeros(rank, r.off, r.size, done)
	}, func(rank int, r req, done func(error)) {
		f.ReadDiscard(rank, r.off, r.size, done)
	})
}

func createPlain(w *mpiio.World, name string, st layout.Mapper) (*mpiio.PlainFile, error) {
	var f *mpiio.PlainFile
	var err error
	w.Run(func() {
		w.CreatePlain(name, st, func(file *mpiio.PlainFile, e error) { f, err = file, e })
	})
	if err == nil && f == nil {
		err = fmt.Errorf("create %q never completed", name)
	}
	return f, err
}

func createHARL(w *mpiio.World, name string, plan *harl.Plan) (*mpiio.HARLFile, error) {
	var f *mpiio.HARLFile
	var err error
	w.Run(func() {
		w.CreateHARL(name, &plan.RST, func(file *mpiio.HARLFile, e error) { f, err = file, e })
	})
	if err == nil && f == nil {
		err = fmt.Errorf("create %q never completed", name)
	}
	return f, err
}

// --- btio_verify ---------------------------------------------------------

// newBTIOVerify is NAS BTIO (full subtype: two-phase collective I/O)
// storing real payload bytes and verifying every snapshot on read-back.
func newBTIOVerify(seed int64, bc btio.Config) *bench {
	bc.Verify = true
	cfg := cluster.Default()
	cfg.Seed = seed
	b := &bench{name: "btio_verify", seed: seed, file: "btio", setups: 1, plans: 3, iterSeconds: 5.5}
	b.newBed = func() (*cluster.Testbed, error) { return cluster.New(cfg) }
	b.setup = func() (*inputs, error) {
		tb, err := b.newBed()
		if err != nil {
			return nil, err
		}
		in := &inputs{}
		if in.params, err = tb.Calibrate(0); err != nil {
			return nil, err
		}
		w := mpiio.NewWorld(tb.FS, bc.Ranks, bc.RanksPerNode)
		f, err := createPlain(w, b.file, layout.Fixed(cfg.HServers, cfg.SServers, 64<<10))
		if err != nil {
			return nil, err
		}
		coll := trace.NewCollector()
		res, err := btio.Run(w, w.Trace(f, coll), bc)
		if err != nil {
			return nil, fmt.Errorf("traced first pass: %w", err)
		}
		if !res.Verified {
			return nil, fmt.Errorf("traced first pass: BTIO verification failed")
		}
		in.trace = coll.Trace()
		return in, nil
	}
	b.open = func(tb *cluster.Testbed, in *inputs, plan *harl.Plan, observe bool) (driver, error) {
		w := mpiio.NewWorld(tb.FS, bc.Ranks, bc.RanksPerNode)
		f, err := createHARL(w, b.file, plan)
		if err != nil {
			return nil, err
		}
		if observe {
			if err := attachMonitor(tb, f, plan, in.params); err != nil {
				return nil, err
			}
		}
		return func(lg *opLog) { driveBTIO(w, lg, f, bc) }, nil
	}
	return b
}

// driveBTIO issues BTIO's I/O kernel through the harness: every snapshot
// is one collective write, and the read-back is one collective read per
// snapshot, verified byte for byte. The decomposition and the payload
// pattern are BTIO's, so the file sees exactly the requests btio.Run
// issues. Each collective is one timed call: every rank takes part, and
// it completes once, when the last of them does. The aggregators' file
// requests are timed separately for the cost model.
func driveBTIO(w *mpiio.World, lg *opLog, f mpiio.File, bc btio.Config) {
	p := int(math.Round(math.Sqrt(float64(bc.Ranks))))
	tf := &timedFile{File: f, lg: lg}
	snaps := bc.Snapshots()
	e := w.Engine()
	var start sim.Time
	var readSnap func(s int)
	var writeSnap func(s int)
	writeSnap = func(s int) {
		if s == snaps {
			lg.span[device.Write] += e.Now().Sub(start)
			start = e.Now()
			readSnap(0)
			return
		}
		base := int64(s) * bc.SnapshotBytes()
		call := req{off: base}
		pieces := make([][]mpiio.CollPiece, bc.Ranks)
		for r := range pieces {
			for _, q := range btioRows(bc, r, p, base) {
				buf := make([]byte, q.size)
				btioFill(s, (q.off-base)/btio.CellBytes, buf)
				pieces[r] = append(pieces[r], mpiio.CollPiece{Off: q.off, Data: buf})
				call.size += q.size
			}
		}
		t0 := lg.start(device.Write, call)
		w.CollectiveWrite(tf, pieces, func(err error) {
			lg.record(device.Write, call, t0, err)
			writeSnap(s + 1)
		})
	}
	readSnap = func(s int) {
		if s == snaps {
			lg.span[device.Read] += e.Now().Sub(start)
			return
		}
		base := int64(s) * bc.SnapshotBytes()
		call := req{off: base}
		ranges := make([][]mpiio.CollRange, bc.Ranks)
		for r := range ranges {
			for _, q := range btioRows(bc, r, p, base) {
				ranges[r] = append(ranges[r], mpiio.CollRange{Off: q.off, Size: q.size})
				call.size += q.size
			}
		}
		t0 := lg.start(device.Read, call)
		w.CollectiveRead(tf, ranges, func(bufs [][][]byte, err error) {
			if err == nil {
				if verr := btioVerify(s, base, ranges, bufs); verr != nil && lg.verifyErr == nil {
					lg.verifyErr = verr
				}
			}
			lg.record(device.Read, call, t0, err)
			readSnap(s + 1)
		})
	}
	e.Schedule(0, func() {
		start = e.Now()
		writeSnap(0)
	})
}

// btioRows lists rank r's contiguous rows of one snapshot in BTIO's
// order: the rank owns p diagonal blocks of the multi-partitioned grid,
// (i+k mod p, j+k mod p, k) for process (i, j), each (N/p)^3 cells.
func btioRows(bc btio.Config, rank, p int, base int64) []req {
	n := int64(bc.Grid)
	b := n / int64(p)
	i, j := rank%p, rank/p
	var out []req
	for k := 0; k < p; k++ {
		bi, bj, bk := int64((i+k)%p), int64((j+k)%p), int64(k)
		for dz := int64(0); dz < b; dz++ {
			for dy := int64(0); dy < b; dy++ {
				elem := ((bk*b+dz)*n+bj*b+dy)*n + bi*b
				out = append(out, req{off: base + elem*btio.CellBytes, size: b * btio.CellBytes})
			}
		}
	}
	return out
}

// btioFill writes BTIO's position-dependent verification pattern for the
// cells starting at elem of snapshot snap.
func btioFill(snap int, elem int64, buf []byte) {
	seed := elem*31 + int64(snap)*101
	for i := range buf {
		buf[i] = byte(seed + int64(i)*7)
	}
}

// btioVerify checks every rank's read-back rows against the pattern.
func btioVerify(snap int, base int64, ranges [][]mpiio.CollRange, bufs [][][]byte) error {
	var want []byte
	for r, rs := range ranges {
		for i, rg := range rs {
			want = append(want[:0], make([]byte, rg.Size)...)
			btioFill(snap, (rg.Off-base)/btio.CellBytes, want)
			if !bytes.Equal(bufs[r][i], want) {
				return fmt.Errorf("btio: snapshot %d rank %d row %d read back wrong bytes", snap, r, i)
			}
		}
	}
	return nil
}

// --- registry --------------------------------------------------------------

// workloads are the benchmark's workloads at full size, by name.
var workloads = map[string]func(seed int64) *bench{
	"scale_write":    func(seed int64) *bench { return newScaleWrite(seed, scaleFull) },
	"multi_observed": func(seed int64) *bench { return newMultiObserved(seed, ior.DefaultMulti()) },
	"btio_verify":    func(seed int64) *bench { return newBTIOVerify(seed, btio.ClassA(16)) },
}
