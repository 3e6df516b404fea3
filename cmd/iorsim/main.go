// Command iorsim runs the IOR benchmark on the simulated hybrid parallel
// file system with a chosen data layout.
//
// Usage:
//
//	iorsim [-ranks 16] [-nodes 8] [-req 512K] [-file 2G] [-hservers 6] [-sservers 2]
//	       [-layout fixed:64K | -layout varied:32K:160K | -layout harl | -layout random]
//	       [-seed 1]
//
// Every layout runs through the experiments IOR driver (experiments.RunIOR),
// the one behind Figs. 7-10. The harl layout runs the full pipeline:
// synthesize the tracing-phase trace from the workload plan, calibrate
// the cost model against the simulated devices, analyze (Algorithms 1
// and 2), place, then measure. The random layout is the first of the
// figures' randomly-chosen stripe pairs for the seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"harl/internal/cluster"
	"harl/internal/experiments"
	"harl/internal/harl"
	"harl/internal/ior"
)

func main() {
	ranks := flag.Int("ranks", 16, "number of IOR processes")
	nodes := flag.Int("nodes", 8, "compute nodes hosting the processes")
	req := flag.String("req", "512K", "request size (K/M suffixes)")
	file := flag.String("file", "2G", "shared file size")
	hservers := flag.Int("hservers", 6, "HDD servers")
	sservers := flag.Int("sservers", 2, "SSD servers")
	layoutSpec := flag.String("layout", "fixed:64K", "fixed:SIZE | varied:H:S | random | harl")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "iorsim: -nodes must be at least 1, got %d\n", *nodes)
		flag.Usage()
		os.Exit(2)
	}

	cfg := ior.Config{
		Ranks:        *ranks,
		RanksPerNode: max(1, *ranks / *nodes),
		RequestSize:  parseSize(*req),
		FileSize:     parseSize(*file),
		Random:       true,
		Seed:         *seed,
	}
	o := experiments.DefaultOptions()
	o.FileSize = cfg.FileSize
	o.ComputeNodes = *nodes
	o.ChunkSize = max(cfg.FileSize/256, 1<<20)
	o.Seed = *seed

	res, label, err := run(o, cluster.WithRatio(*hservers, *sservers), cfg, *layoutSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iorsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("layout %-22s ranks %-4d req %-8s file %s\n", label, cfg.Ranks, *req, *file)
	fmt.Printf("  write: %8.1f MB/s  (%d bytes in %v)\n", res.WriteMBs(), res.WriteBytes, res.WriteTime)
	fmt.Printf("  read:  %8.1f MB/s  (%d bytes in %v)\n", res.ReadMBs(), res.ReadBytes, res.ReadTime)
}

// run measures cfg under the layout spec through the experiments IOR
// driver and returns the result with the layout's label.
func run(o experiments.Options, clusterCfg cluster.Config, cfg ior.Config, spec string) (ior.Result, string, error) {
	var pair *harl.StripePair
	switch {
	case strings.HasPrefix(spec, "fixed:"):
		sz := parseSize(strings.TrimPrefix(spec, "fixed:"))
		pair = &harl.StripePair{H: sz, S: sz}
	case strings.HasPrefix(spec, "varied:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return ior.Result{}, "", fmt.Errorf("bad varied layout %q, want varied:H:S", spec)
		}
		pair = &harl.StripePair{H: parseSize(parts[1]), S: parseSize(parts[2])}
	case spec == "random":
		pair = &o.RandomPairs()[0]
	case spec == "harl":
		// No fixed pair: RunIOR plans the layout.
	default:
		return ior.Result{}, "", fmt.Errorf("unknown layout %q", spec)
	}
	res, plan, err := experiments.RunIOR(o, clusterCfg, cfg, pair, nil)
	switch {
	case pair != nil:
		return res, pair.String(), err
	case err != nil:
		return res, "", err
	case len(plan.Regions) == 1:
		return res, "harl " + plan.Regions[0].Stripes.String(), nil
	default:
		return res, fmt.Sprintf("harl (%d regions)", len(plan.Regions)), nil
	}
}

// parseSize parses "64K", "2M", "1G" or plain bytes.
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		fmt.Fprintf(os.Stderr, "iorsim: bad size %q\n", s)
		os.Exit(2)
	}
	return n * mult
}
