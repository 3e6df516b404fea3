// Command btiosim runs the BTIO benchmark kernel on the simulated hybrid
// parallel file system.
//
// Usage:
//
//	btiosim [-class A] [-ranks 16] [-nodes 8] [-subtype full|simple]
//	        [-layout fixed:64K | -layout harl] [-seed 1]
//
// Every layout runs through the experiments BTIO driver
// (experiments.RunBTIO), the one behind Fig. 12. The harl layout traces
// an instrumented first run on the default 64 KB layout, analyzes it,
// and measures the optimized placement — the full three-phase pipeline
// of the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"harl/internal/btio"
	"harl/internal/experiments"
	"harl/internal/harl"
)

func main() {
	class := flag.String("class", "W", "BTIO class: S, W or A")
	ranks := flag.Int("ranks", 16, "processes (must be a perfect square)")
	nodes := flag.Int("nodes", 8, "compute nodes")
	layoutSpec := flag.String("layout", "fixed:64K", "fixed:SIZE | harl")
	subtype := flag.String("subtype", "full", "I/O subtype: full (collective) or simple (independent)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "btiosim: -nodes must be at least 1, got %d\n", *nodes)
		flag.Usage()
		os.Exit(2)
	}

	var cfg btio.Config
	switch strings.ToUpper(*class) {
	case "S":
		cfg = btio.ClassS(*ranks)
	case "W":
		cfg = btio.ClassW(*ranks)
	case "A":
		cfg = btio.ClassA(*ranks)
	default:
		fmt.Fprintf(os.Stderr, "btiosim: unknown class %q\n", *class)
		os.Exit(2)
	}
	cfg.RanksPerNode = max(1, *ranks / *nodes)
	switch *subtype {
	case "full":
		cfg.Subtype = btio.Full
	case "simple":
		cfg.Subtype = btio.Simple
	default:
		fmt.Fprintf(os.Stderr, "btiosim: unknown subtype %q\n", *subtype)
		os.Exit(2)
	}
	o := experiments.DefaultOptions()
	o.ComputeNodes = *nodes
	o.ChunkSize = max(cfg.TotalBytes()/256, 1<<20)
	o.Seed = *seed

	res, label, err := run(o, cfg, *layoutSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btiosim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("BTIO class %s (%s subtype), %d procs, layout %s\n", strings.ToUpper(*class), cfg.Subtype, cfg.Ranks, label)
	fmt.Printf("  snapshots: %d x %.1f MB\n", cfg.Snapshots(), float64(cfg.SnapshotBytes())/(1<<20))
	fmt.Printf("  write: %8.1f MB/s   read: %8.1f MB/s   aggregate: %8.1f MB/s\n",
		res.WriteMBs(), res.ReadMBs(), res.AggregateMBs())
}

// run measures cfg under the layout spec through the experiments BTIO
// driver and returns the result with the layout's label.
func run(o experiments.Options, cfg btio.Config, spec string) (btio.Result, string, error) {
	if strings.HasPrefix(spec, "fixed:") {
		var sz int64
		s := strings.TrimSuffix(strings.TrimPrefix(spec, "fixed:"), "K")
		if _, err := fmt.Sscanf(s, "%d", &sz); err != nil {
			return btio.Result{}, "", fmt.Errorf("bad layout %q", spec)
		}
		sz <<= 10
		res, _, err := experiments.RunBTIO(o, cfg, &harl.StripePair{H: sz, S: sz})
		return res, fmt.Sprintf("%dK fixed", sz>>10), err
	}
	if spec != "harl" {
		return btio.Result{}, "", fmt.Errorf("unknown layout %q", spec)
	}
	res, plan, err := experiments.RunBTIO(o, cfg, nil)
	if err != nil {
		return res, "", err
	}
	return res, fmt.Sprintf("harl (%d regions)", len(plan.RST.Entries)), nil
}
