// Package cluster assembles complete simulated testbeds: engine, network,
// and a hybrid parallel file system with a chosen HServer:SServer ratio.
// It mirrors the paper's experimental setup (Section IV-A): a 65-node SUN
// Fire cluster from which 8 compute nodes, up to 8 HServers and up to 8
// SServers are drawn, all on Gigabit Ethernet, with 6 HServers + 2
// SServers as the default file system.
package cluster

import (
	"fmt"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/sim"
)

// Config describes one testbed.
type Config struct {
	HServers int
	SServers int
	HProfile device.Profile
	SProfile device.Profile
	Network  netsim.Config
	Seed     int64

	// HeapEngine drives the testbed on the retained binary-heap
	// reference engine instead of the timer wheel. Both must behave
	// bit-identically; differential tests flip this to prove it.
	HeapEngine bool
}

// Default is the paper's default setup: 6 HServers + 2 SServers on
// Gigabit Ethernet with the stock device profiles.
func Default() Config {
	return Config{
		HServers: 6,
		SServers: 2,
		HProfile: device.DefaultHDD(),
		SProfile: device.DefaultSSD(),
		Network:  netsim.GigabitEthernet(),
		Seed:     1,
	}
}

// WithRatio returns the default config with a different server ratio
// (the Fig. 10 sweep uses 7:1 and 2:6).
func WithRatio(h, s int) Config {
	c := Default()
	c.HServers = h
	c.SServers = s
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.HServers < 0 || c.SServers < 0 || c.HServers+c.SServers == 0 {
		return fmt.Errorf("cluster: invalid server counts %d:%d", c.HServers, c.SServers)
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if c.HServers > 0 {
		if err := c.HProfile.Validate(); err != nil {
			return err
		}
	}
	if c.SServers > 0 {
		if err := c.SProfile.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Testbed is an assembled simulation environment.
type Testbed struct {
	Config Config
	Engine *sim.Engine
	Net    *netsim.Network
	FS     *pfs.FS
}

// Instrument attaches a fresh tracer and metrics registry to the
// testbed's file system and network and returns both — the one-call
// observability switch experiments flip before running a workload.
func (t *Testbed) Instrument() (*obs.Tracer, *obs.Registry) {
	tr := obs.NewTracer(t.Engine)
	reg := obs.NewRegistry()
	t.FS.Instrument(tr, reg)
	return tr, reg
}

// New builds a testbed: HServers first (indices 0..H-1), then SServers,
// matching the striping convention of package layout.
func New(cfg Config) (*Testbed, error) { return Build(cfg, nil) }

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Testbed {
	tb, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tb
}

// NewCustom builds a testbed from an explicit per-server profile list —
// used by the multi-tier extension, where the server population mixes
// more than two performance profiles. Profiles must be ordered slowest
// class first to match tiered striping conventions.
func NewCustom(profiles []device.Profile, netCfg netsim.Config, seed int64) (*Testbed, error) {
	return Build(Config{Network: netCfg, Seed: seed}, profiles)
}

// Build is the one testbed constructor. With nil profiles it validates
// cfg and builds its HServers copies of HProfile then SServers copies
// of SProfile. Otherwise it builds the given per-server population and
// takes only Network, Seed and HeapEngine from cfg, which is what the
// testbed then records as its Config.
func Build(cfg Config, profiles []device.Profile) (*Testbed, error) {
	if profiles == nil {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		profiles = make([]device.Profile, 0, cfg.HServers+cfg.SServers)
		for i := 0; i < cfg.HServers; i++ {
			profiles = append(profiles, cfg.HProfile)
		}
		for i := 0; i < cfg.SServers; i++ {
			profiles = append(profiles, cfg.SProfile)
		}
	} else {
		if err := cfg.Network.Validate(); err != nil {
			return nil, err
		}
		cfg = Config{Network: cfg.Network, Seed: cfg.Seed, HeapEngine: cfg.HeapEngine}
	}
	e := sim.NewEngine(cfg.Seed)
	if cfg.HeapEngine {
		e = sim.NewHeapEngine(cfg.Seed)
	}
	net := netsim.MustNew(e, cfg.Network)
	fs, err := pfs.New(e, net, profiles)
	if err != nil {
		return nil, err
	}
	return &Testbed{Config: cfg, Engine: e, Net: net, FS: fs}, nil
}

// Calibrate fits the cost-model parameters for this testbed's hardware,
// as HARL's analysis phase does before optimizing (Section III-G).
func (tb *Testbed) Calibrate(probes int) (cost.Params, error) {
	return tb.Config.Calibrate(probes)
}

// Calibrate fits the cost-model parameters for the hardware cfg
// describes, without building a testbed. probes <= 0 means
// cost.DefaultProbes.
func (c Config) Calibrate(probes int) (cost.Params, error) {
	if err := c.Validate(); err != nil {
		return cost.Params{}, err
	}
	if probes <= 0 {
		probes = cost.DefaultProbes
	}
	return cost.Calibrate(c.HProfile, c.SProfile, c.Network, c.HServers, c.SServers, probes, c.Seed+100)
}
