package pfs

import (
	"reflect"
	"testing"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/sim"
)

func TestPhantomWriteAdvancesEOF(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "phantom", layout.Fixed(6, 2, 64<<10))
	var done bool
	e.Schedule(0, func() {
		f.WriteZeros(1<<20, 512<<10, func(err error) {
			if err != nil {
				t.Errorf("write zeros: %v", err)
			}
			done = true
		})
	})
	e.Run()
	if !done {
		t.Fatal("phantom write never completed")
	}
	if f.Size() != 1<<20+512<<10 {
		t.Fatalf("EOF = %d", f.Size())
	}
	// Nothing materialized on any server.
	for _, s := range fs.Servers() {
		if s.StoredBytes() != 0 {
			t.Fatalf("phantom write stored %d bytes on %s", s.StoredBytes(), s.Name)
		}
	}
}

func TestPhantomReadOfPhantomWriteIsZeros(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "phantom", layout.Fixed(6, 2, 64<<10))
	var got []byte
	e.Schedule(0, func() {
		f.WriteZeros(0, 128<<10, func(error) {
			f.ReadAt(0, 128<<10, func(data []byte, _ error) { got = data })
		})
	})
	e.Run()
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// Phantom operations must behave exactly like their payload twins: the
// layouts, network transfers, disk services, recovery policy and
// replication protocol are identical, only the payload handling differs.
// Each case runs one request sequence both ways and compares the end
// time, processed events, per-server disk busy time, errors and span
// names.
func TestPhantomTimingMatchesReal(t *testing.T) {
	cases := []struct {
		name       string
		lo         layout.Mapper
		r          int
		policy     Policy
		flaky      bool
		instrument bool
	}{
		{name: "fixed", lo: layout.Fixed(6, 2, 64<<10)},
		{name: "striping", lo: layout.Striping{M: 6, N: 2, H: 16 << 10, S: 96 << 10}},
		{name: "tiered", lo: layout.Tiered{Counts: []int{6, 2}, Stripes: []int64{32 << 10, 160 << 10}}},
		{name: "policy-flaky", lo: layout.Fixed(6, 2, 64<<10), flaky: true, policy: Policy{
			Timeout: 50 * sim.Millisecond, MaxRetries: 4, Backoff: sim.Millisecond, HedgeAfter: 5 * sim.Millisecond,
		}},
		{name: "repl-r2", lo: layout.Fixed(6, 2, 64<<10), r: 2},
		{name: "instrumented", lo: layout.Striping{M: 6, N: 2, H: 16 << 10, S: 96 << 10}, instrument: true},
	}
	// Whole, partial-stripe and unaligned ranges, each written then read.
	ops := []struct {
		op        device.Op
		off, size int64
	}{
		{device.Write, 0, 1 << 20},
		{device.Read, 0, 1 << 20},
		{device.Write, 1<<20 + 12345, 300 << 10},
		{device.Read, 1<<20 + 12345, 300 << 10},
		{device.Read, 100, 5000},
	}
	type outcome struct {
		end    sim.Time
		events uint64
		busy   []sim.Duration
		errs   []string
		faults FaultStats
		spans  map[string]int
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(phantom bool) outcome {
				e, fs := testbed(t)
				var tr *obs.Tracer
				if tc.instrument {
					tr = obs.NewTracer(e)
					fs.Instrument(tr, obs.NewRegistry())
				}
				if tc.flaky {
					fs.SetFlaky(1, 0.2, 0.1)
					fs.SetFlaky(6, 0.2, 0.1)
				}
				fs.ClientPolicy = tc.policy
				c := fs.NewClient("c0")
				var f *File
				if tc.r > 1 {
					f = mustCreateRepl(t, e, c, "f", tc.lo.(layout.Striping), tc.r)
				} else {
					e.Schedule(0, func() {
						c.Create("f", tc.lo, func(file *File, err error) {
							if err != nil {
								t.Errorf("create: %v", err)
							}
							f = file
						})
					})
					e.Run()
				}
				var out outcome
				var step func(i int)
				step = func(i int) {
					if i == len(ops) {
						return
					}
					next := func(err error) {
						if err != nil {
							out.errs = append(out.errs, err.Error())
						}
						step(i + 1)
					}
					switch o := ops[i]; {
					case o.op == device.Write && phantom:
						f.WriteZeros(o.off, o.size, next)
					case o.op == device.Write:
						f.WriteAt(make([]byte, o.size), o.off, next)
					case phantom:
						f.ReadDiscard(o.off, o.size, next)
					default:
						f.ReadAt(o.off, o.size, func(_ []byte, err error) { next(err) })
					}
				}
				e.Schedule(0, func() { step(0) })
				out.end = e.Run()
				out.events = e.Processed
				out.faults = fs.Faults
				for _, s := range fs.Servers() {
					out.busy = append(out.busy, s.DiskBusy())
				}
				if tr != nil {
					out.spans = make(map[string]int)
					for _, sp := range tr.Spans() {
						out.spans[sp.Name]++
					}
				}
				return out
			}
			real, phantom := run(false), run(true)
			if !reflect.DeepEqual(real, phantom) {
				t.Fatalf("phantom run %+v differs from payload run %+v", phantom, real)
			}
			if tc.flaky && (real.faults.Retries == 0 || real.faults.Hedges == 0) {
				t.Fatalf("policy case never retried or hedged: %+v", real.faults)
			}
		})
	}
}

func TestPhantomZeroSize(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "f", layout.Fixed(6, 2, 64<<10))
	calls := 0
	e.Schedule(0, func() {
		f.WriteZeros(0, 0, func(error) { calls++ })
		f.ReadDiscard(0, 0, func(error) { calls++ })
	})
	e.Run()
	if calls != 2 {
		t.Fatalf("zero-size phantom ops completed %d of 2", calls)
	}
}

func TestRename(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "old", layout.Fixed(6, 2, 64<<10))
	e.Schedule(0, func() { f.WriteAt([]byte("payload"), 0, func(error) {}) })
	e.Run()

	var renameErr error
	e.Schedule(0, func() { c.Rename("old", "new", func(err error) { renameErr = err }) })
	e.Run()
	if renameErr != nil {
		t.Fatalf("rename: %v", renameErr)
	}

	var oldErr error
	var got []byte
	e.Schedule(0, func() {
		c.Open("old", func(_ *File, err error) { oldErr = err })
		c.Open("new", func(f2 *File, err error) {
			if err != nil {
				t.Errorf("open new: %v", err)
				return
			}
			f2.ReadAt(0, 7, func(data []byte, _ error) { got = data })
		})
	})
	e.Run()
	if oldErr == nil {
		t.Fatal("old name still resolves")
	}
	if string(got) != "payload" {
		t.Fatalf("data lost in rename: %q", got)
	}

	// Renaming onto an existing name or from a missing name fails.
	mustCreate(t, e, c, "blocker", layout.Fixed(6, 2, 64<<10))
	var errExists, errMissing error
	e.Schedule(0, func() {
		c.Rename("new", "blocker", func(err error) { errExists = err })
		c.Rename("ghost", "whatever", func(err error) { errMissing = err })
	})
	e.Run()
	if errExists == nil || errMissing == nil {
		t.Fatalf("bad renames accepted: %v, %v", errExists, errMissing)
	}
}

func TestUsageAccessors(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "a", layout.Fixed(6, 2, 64<<10))
	mustCreate(t, e, c, "b", layout.Fixed(6, 2, 64<<10))
	e.Schedule(0, func() { f.WriteAt(make([]byte, 1<<20), 0, func(error) {}) })
	e.Run()

	names := fs.FileNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	var total int64
	for srv := range fs.Servers() {
		total += fs.FileBytesOn("a", srv)
	}
	if total < 1<<20 {
		t.Fatalf("per-server usage sums to %d, wrote %d", total, 1<<20)
	}
	if fs.FileBytesOn("b", 0) != 0 {
		t.Fatal("empty file shows usage")
	}
	if fs.FileBytesOn("ghost", 0) != 0 {
		t.Fatal("missing file shows usage")
	}
	if u := fs.Servers()[0].Utilization(); u <= 0 || u >= 1 {
		t.Fatalf("utilization = %v", u)
	}
	if fs.Engine() == nil || fs.Network() == nil {
		t.Fatal("accessors broken")
	}
	if c.Name() != "c0" || c.Node() == nil || f.Engine() != e {
		t.Fatal("client accessors broken")
	}
}
