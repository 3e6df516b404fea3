// Command perfbench is the repository's benchmark. It drives one workload
// through the public APIs of cluster, mpiio, pfs and harl, checks every
// replay's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). The last line
// of standard output is one JSON object; README.md describes the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds the measured loop runs")
	traceRun := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()

	newBench, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// One P: the collector then runs on the same thread as the
	// simulation, so a phase's CPU time is its own work and its own
	// garbage collection, not an idle second P's background marking.
	runtime.GOMAXPROCS(1)

	b := newBench(*seed)
	var res *result
	var err error
	if *traceRun == 1 {
		res, err = tracedRun(b, *seconds, os.Stdout)
	} else {
		res, err = measure(b, *seconds, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", b.name, err)
		if res == nil {
			os.Exit(1)
		}
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
