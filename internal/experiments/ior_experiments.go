package experiments

import (
	"fmt"

	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/trace"
)

// RunIOR measures the IOR workload cfg on a fresh testbed built from
// clusterCfg. With a non-nil pair the shared file is striped with it
// over every server and no plan is returned. With a nil pair it runs
// the full HARL pipeline and returns the plan: trace (the deterministic
// request plan stands in for the traced first execution — it is exactly
// the request stream the run replays), calibrate, analyze tr
// (Algorithms 1+2; nil means cfg.Trace()), place (per-region files),
// run.
//
// Fig. 7 passes only the reads or only the writes as tr, mirroring the
// paper, where the read test is optimized from the read trace
// ({32K,160K}) and the write test from the write trace ({36K,148K}).
func RunIOR(o Options, clusterCfg cluster.Config, cfg ior.Config, pair *harl.StripePair, tr *trace.Trace) (ior.Result, *harl.Plan, error) {
	s := scenario{cluster: clusterCfg}
	if pair != nil {
		res, err := o.runIOR(s, cfg, fixedStriping(clusterCfg, *pair))
		return res, nil, err
	}
	p, err := o.planner(clusterCfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	if tr == nil {
		tr = cfg.Trace()
	}
	plan, err := p.Analyze(tr)
	if err != nil {
		return ior.Result{}, nil, err
	}
	res, err := o.runIOR(s, cfg, &plan.RST)
	return res, plan, err
}

// runIOR runs the IOR workload cfg on a fresh testbed built from s, its
// shared file laid out by lo (see Options.world).
func (o Options) runIOR(s scenario, cfg ior.Config, lo any) (ior.Result, error) {
	tb, err := o.testbed(s)
	if err != nil {
		return ior.Result{}, err
	}
	w, f, err := o.world(tb, cfg.Ranks, "ior", lo)
	if err != nil {
		return ior.Result{}, err
	}
	return ior.Run(w, f, cfg)
}

// fixedPair is the fixed layout with one stripe size on every server.
func fixedPair(stripe int64) *harl.StripePair {
	return &harl.StripePair{H: stripe, S: stripe}
}

// Fig7 reproduces "Throughputs of IOR with different layouts": 16
// processes, 512 KB requests, fixed-size stripes vs randomly-chosen
// stripes vs HARL; columns are read and write MB/s. The HARL row is
// optimized per operation, as in the paper.
func Fig7(o Options) (*Table, error) {
	t := &Table{Title: "Fig 7: IOR throughput by layout (16 procs, 512KB)", Columns: []string{"read MB/s", "write MB/s"}}
	clusterCfg := cluster.Default()
	cfg := o.iorConfig(o.Ranks, 512<<10)

	for _, stripe := range o.FixedStripes {
		res, _, err := RunIOR(o, clusterCfg, cfg, fixedPair(stripe), nil)
		if err != nil {
			return nil, fmt.Errorf("fig7 fixed %d: %w", stripe, err)
		}
		t.Add(fmt.Sprintf("%dK", stripe>>10), res.ReadMBs(), res.WriteMBs())
	}
	for i, pair := range o.RandomPairs() {
		res, _, err := RunIOR(o, clusterCfg, cfg, &pair, nil)
		if err != nil {
			return nil, fmt.Errorf("fig7 random %d: %w", i, err)
		}
		t.Add(fmt.Sprintf("rand%d (%v)", i+1, pair), res.ReadMBs(), res.WriteMBs())
	}
	rRes, rPlan, err := RunIOR(o, clusterCfg, cfg, nil, cfg.Trace().Reads())
	if err != nil {
		return nil, fmt.Errorf("fig7 harl read: %w", err)
	}
	wRes, wPlan, err := RunIOR(o, clusterCfg, cfg, nil, cfg.Trace().Writes())
	if err != nil {
		return nil, fmt.Errorf("fig7 harl write: %w", err)
	}
	t.Add(fmt.Sprintf("HARL (r:%v w:%v)", planPair(rPlan), planPair(wPlan)),
		rRes.ReadMBs(), wRes.WriteMBs())
	return t, nil
}

// planPair summarizes a single-region plan's stripe pair for labels.
func planPair(p *harl.Plan) harl.StripePair {
	if len(p.Regions) == 0 {
		return harl.StripePair{}
	}
	return p.Regions[0].Stripes
}

// Fig8 reproduces "Throughputs of IOR with various number of processes":
// 8-256 processes at 512 KB requests; columns compare the default 64 KB
// layout, the best fixed layout, a random layout, and HARL.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		Title: "Fig 8: IOR throughput by process count (512KB requests)",
		Columns: []string{
			"64K read", "64K write", "bestfix read", "bestfix write",
			"rand read", "rand write", "HARL read", "HARL write",
		},
	}
	clusterCfg := cluster.Default()
	randPair := o.RandomPairs()[0]
	for _, procs := range []int{8, 32, 128, 256} {
		cfg := o.iorConfig(procs, 512<<10)
		def, _, err := RunIOR(o, clusterCfg, cfg, fixedPair(64<<10), nil)
		if err != nil {
			return nil, err
		}
		bestR, bestW := def.ReadMBs(), def.WriteMBs()
		for _, stripe := range o.FixedStripes {
			res, _, err := RunIOR(o, clusterCfg, cfg, fixedPair(stripe), nil)
			if err != nil {
				return nil, err
			}
			if res.ReadMBs() > bestR {
				bestR = res.ReadMBs()
			}
			if res.WriteMBs() > bestW {
				bestW = res.WriteMBs()
			}
		}
		rnd, _, err := RunIOR(o, clusterCfg, cfg, &randPair, nil)
		if err != nil {
			return nil, err
		}
		hres, _, err := RunIOR(o, clusterCfg, cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d procs", procs),
			def.ReadMBs(), def.WriteMBs(), bestR, bestW,
			rnd.ReadMBs(), rnd.WriteMBs(), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig9 reproduces "Throughputs of IOR with various request sizes":
// 128 KB and 1024 KB requests across the layout set.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 9: IOR throughput by request size (16 procs)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	clusterCfg := cluster.Default()
	for _, reqSize := range []int64{128 << 10, 1024 << 10} {
		cfg := o.iorConfig(o.Ranks, reqSize)
		for _, stripe := range o.FixedStripes {
			res, _, err := RunIOR(o, clusterCfg, cfg, fixedPair(stripe), nil)
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprintf("req %dK / %dK", reqSize>>10, stripe>>10), res.ReadMBs(), res.WriteMBs())
		}
		rnd, _, err := RunIOR(o, clusterCfg, cfg, &o.RandomPairs()[0], nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("req %dK / rand", reqSize>>10), rnd.ReadMBs(), rnd.WriteMBs())
		hres, plan, err := RunIOR(o, clusterCfg, cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("req %dK / HARL %v", reqSize>>10, planPair(plan)), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig10 reproduces "Throughputs of IOR with various file server
// configurations": HServer:SServer ratios 7:1, 6:2 (default) and 2:6.
func Fig10(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 10: IOR throughput by server ratio (512KB requests)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	for _, ratio := range [][2]int{{7, 1}, {6, 2}, {2, 6}} {
		clusterCfg := cluster.WithRatio(ratio[0], ratio[1])
		cfg := o.iorConfig(o.Ranks, 512<<10)
		def, _, err := RunIOR(o, clusterCfg, cfg, fixedPair(64<<10), nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d 64K", ratio[0], ratio[1]), def.ReadMBs(), def.WriteMBs())
		rnd, _, err := RunIOR(o, clusterCfg, cfg, &o.RandomPairs()[0], nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d rand", ratio[0], ratio[1]), rnd.ReadMBs(), rnd.WriteMBs())
		hres, plan, err := RunIOR(o, clusterCfg, cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d HARL %v", ratio[0], ratio[1], planPair(plan)), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig11 reproduces "I/O throughputs with non-uniform workloads": the
// modified four-region IOR file, where HARL's region division must give
// each region its own stripes.
func Fig11(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 11: non-uniform four-region IOR",
		Columns: []string{"read MB/s", "write MB/s", "regions"},
	}
	clusterCfg := cluster.Default()
	mcfg := o.multiConfig()

	for _, stripe := range o.FixedStripes {
		res, err := o.runMulti(mcfg, fixedStriping(clusterCfg, harl.StripePair{H: stripe, S: stripe}))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%dK", stripe>>10), res.ReadMBs(), res.WriteMBs(), 1)
	}
	rnd, err := o.runMulti(mcfg, fixedStriping(clusterCfg, o.RandomPairs()[0]))
	if err != nil {
		return nil, err
	}
	t.Add("rand", rnd.ReadMBs(), rnd.WriteMBs(), 1)

	p, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}
	plan, err := p.Analyze(mcfg.Trace())
	if err != nil {
		return nil, err
	}
	res, err := o.runMulti(mcfg, &plan.RST)
	if err != nil {
		return nil, err
	}
	t.Add("HARL", res.ReadMBs(), res.WriteMBs(), float64(len(plan.RST.Entries)))
	return t, nil
}

// multiConfig scales the paper's 256MB/1GB/2GB/4GB four-region file to
// the option's file size (the paper's total is 7.25 GB).
func (o Options) multiConfig() ior.MultiConfig {
	m := ior.DefaultMulti()
	m.Ranks = o.Ranks
	m.RanksPerNode = o.ranksPerNode(o.Ranks)
	m.Seed = o.Seed
	scale := float64(o.FileSize) / float64(16<<30)
	for i := range m.Regions {
		size := int64(float64(m.Regions[i].Size) * scale * 2)
		// Keep each region large enough for every rank's slab.
		if min := m.Regions[i].RequestSize * int64(o.Ranks) * 4; size < min {
			size = min
		}
		m.Regions[i].Size = size
	}
	return m
}

// runMulti runs the four-region workload cfg on a fresh default testbed,
// its file laid out by lo (see Options.world).
func (o Options) runMulti(cfg ior.MultiConfig, lo any) (ior.Result, error) {
	tb, err := o.testbed(scenario{cluster: cluster.Default()})
	if err != nil {
		return ior.Result{}, err
	}
	w, f, err := o.world(tb, cfg.Ranks, "multi", lo)
	if err != nil {
		return ior.Result{}, err
	}
	return ior.RunMulti(w, f, cfg)
}
