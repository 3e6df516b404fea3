package experiments

import (
	"fmt"

	"harl/internal/cluster"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/pfs"
)

// The scenario path: every driver builds its testbed, opens its shared
// file and plans its layout through the three helpers below, so the
// option set's seed, engine choice and Attach hook reach every testbed
// by construction. The order is fixed: build, client policy, what-if
// adjust, Attach; then the driver's own observers; then the World and
// the file.

// scenario is one testbed recipe.
type scenario struct {
	// cluster is the two-class testbed to build; the options supply its
	// Seed and HeapEngine.
	cluster cluster.Config
	// profiles, when non-nil, replaces cluster's two server classes
	// with this per-server population on cluster's network.
	profiles []device.Profile
	// policy is the client recovery policy; it is set before any client
	// exists, since clients copy it at creation.
	policy pfs.Policy
	// adjust is the what-if engine's counterfactual (a tier, server or
	// link sped up), applied before Attach and before any traffic.
	adjust func(*cluster.Testbed)
}

// stamp applies the option set's seed and engine choice to cfg — the
// one place they are applied, for testbeds and calibration alike.
func (o Options) stamp(cfg cluster.Config) cluster.Config {
	cfg.Seed = o.Seed
	cfg.HeapEngine = o.HeapEngine
	return cfg
}

// testbed builds s: the testbed, then its client policy, the what-if
// adjust and Options.Attach, in that order.
func (o Options) testbed(s scenario) (*cluster.Testbed, error) {
	tb, err := cluster.Build(o.stamp(s.cluster), s.profiles)
	if err != nil {
		return nil, err
	}
	tb.FS.ClientPolicy = s.policy
	if s.adjust != nil {
		s.adjust(tb)
	}
	if o.Attach != nil {
		o.Attach(tb)
	}
	return tb, nil
}

// world opens a World of ranks on tb, packed onto the option set's
// compute nodes, and runs the engine until the collective create of
// the shared file name completes. lo is a layout.Mapper, which gives a
// plain striped file, or a *harl.RST, which gives a region-placed
// *mpiio.HARLFile.
func (o Options) world(tb *cluster.Testbed, ranks int, name string, lo any) (*mpiio.World, mpiio.PhantomFile, error) {
	w := mpiio.NewWorld(tb.FS, ranks, o.ranksPerNode(ranks))
	var f mpiio.PhantomFile
	var err error
	w.Run(func() {
		switch lo := lo.(type) {
		case *harl.RST:
			w.CreateHARL(name, lo, func(file *mpiio.HARLFile, e error) { f, err = file, e })
		case layout.Mapper:
			w.CreatePlain(name, lo, func(file *mpiio.PlainFile, e error) { f, err = file, e })
		default:
			panic(fmt.Sprintf("experiments: %T is not a file layout", lo))
		}
	})
	return w, f, err
}

// planner calibrates the cost model against cfg's hardware and returns
// the Analysis Phase planner the option set configures. Drivers that
// study a variant (other parameters, threshold or request cap) derive it
// from this planner.
func (o Options) planner(cfg cluster.Config) (harl.Planner, error) {
	params, err := o.stamp(cfg).Calibrate(o.Probes)
	if err != nil {
		return harl.Planner{}, err
	}
	return harl.Planner{Params: params, ChunkSize: o.ChunkSize, Parallelism: o.Parallelism}, nil
}

// withAttach returns o with fn wired into every testbed ahead of o's
// own Attach hook, so a driver's private wiring never drops the
// caller's.
func (o Options) withAttach(fn func(*cluster.Testbed)) Options {
	next := o.Attach
	o.Attach = func(tb *cluster.Testbed) {
		fn(tb)
		if next != nil {
			next(tb)
		}
	}
	return o
}
