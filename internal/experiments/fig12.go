package experiments

import (
	"fmt"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/trace"
)

// Fig12 reproduces "I/O throughputs of BTIO benchmark with different
// layouts": BTIO (the paper runs class A, full subtype — collective I/O)
// with 4, 16 and 64 processes, comparing fixed-size stripes against HARL.
// The column is the aggregate (write+read) throughput the paper plots.
func Fig12(o Options) (*Table, error) {
	t := &Table{Title: "Fig 12: BTIO aggregate throughput", Columns: []string{"MB/s"}}
	for _, procs := range []int{4, 16, 64} {
		cfg := o.BTIOClass(procs)
		cfg.RanksPerNode = o.ranksPerNode(procs)
		for _, stripe := range o.BTIOStripes {
			res, _, err := RunBTIO(o, cfg, fixedPair(stripe))
			if err != nil {
				return nil, fmt.Errorf("fig12 %dp fixed %d: %w", procs, stripe, err)
			}
			t.Add(fmt.Sprintf("%dp %dK", procs, stripe>>10), res.AggregateMBs())
		}
		res, plan, err := RunBTIO(o, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("fig12 %dp harl: %w", procs, err)
		}
		t.Add(fmt.Sprintf("%dp HARL (%d regions)", procs, len(plan.RST.Entries)), res.AggregateMBs())
	}
	return t, nil
}

// RunBTIO measures the BTIO workload cfg on a fresh default testbed.
// With a non-nil pair the file is striped with it over every server
// and no plan is returned. With a nil pair it runs the full pipeline
// and returns the plan: a traced first run on the default 64 KB layout
// collects the post-aggregation request stream, the planner analyzes
// it, and a fresh testbed measures the optimized layout.
func RunBTIO(o Options, cfg btio.Config, pair *harl.StripePair) (btio.Result, *harl.Plan, error) {
	clusterCfg := cluster.Default()
	if pair != nil {
		res, err := o.runBTIO(cfg, fixedStriping(clusterCfg, *pair))
		return res, nil, err
	}

	// Tracing phase: instrument a run on the default 64 KB layout.
	tb, err := o.testbed(scenario{cluster: clusterCfg})
	if err != nil {
		return btio.Result{}, nil, err
	}
	w, f, err := o.world(tb, cfg.Ranks, "btio", layout.Fixed(clusterCfg.HServers, clusterCfg.SServers, 64<<10))
	if err != nil {
		return btio.Result{}, nil, err
	}
	collector := trace.NewCollector()
	traceCfg := cfg
	traceCfg.Verify = false
	if _, err := btio.Run(w, w.Trace(f, collector), traceCfg); err != nil {
		return btio.Result{}, nil, err
	}

	// Analysis phase.
	p, err := o.planner(clusterCfg)
	if err != nil {
		return btio.Result{}, nil, err
	}
	plan, err := p.Analyze(collector.Trace())
	if err != nil {
		return btio.Result{}, nil, err
	}

	// Placing phase + measured run.
	res, err := o.runBTIO(cfg, &plan.RST)
	return res, plan, err
}

// runBTIO runs the BTIO workload cfg on a fresh default testbed, its
// file laid out by lo (see Options.world).
func (o Options) runBTIO(cfg btio.Config, lo any) (btio.Result, error) {
	tb, err := o.testbed(scenario{cluster: cluster.Default()})
	if err != nil {
		return btio.Result{}, err
	}
	w, f, err := o.world(tb, cfg.Ranks, "btio", lo)
	if err != nil {
		return btio.Result{}, err
	}
	return btio.Run(w, f, cfg)
}
