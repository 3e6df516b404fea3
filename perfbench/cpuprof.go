package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// CPU profile attribution. The profile runtime/pprof writes is read back
// with the Go toolchain's own pprof (`go tool pprof -traces`), which
// prints every sampled call stack, leaf first, with its CPU time.

// cpuModules are the layers cpu.<module> reports, named by their package
// under harl/internal.
var cpuModules = []string{
	"sim", "layout", "pfs", "netsim", "device", "mpiio", "region", "cost", "harl",
	"obs", "monitor", "telemetry", "ior", "btio", "trace", "cluster",
}

// cpuShares attributes every sample of the CPU profile at path to one
// bucket and returns each bucket's share of the total: a module, "gc",
// "malloc" or "other". A sample belongs to the first frame, leaf first,
// that is a module function or a garbage-collector or allocator function
// of the runtime; other runtime and standard-library frames pass the
// sample on to their caller, so a map lookup or a copy is charged to the
// module that made it. Samples with no such frame, and harness frames,
// are "other". Samples taken in the host-speed reference kernel are left
// out: it is no part of the program.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	stacks, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"gc": 0, "malloc": 0, "other": 0}
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total float64
	for _, st := range stacks {
		if slices.ContainsFunc(st.frames, func(fn string) bool { return strings.HasPrefix(fn, "main.refRun") }) {
			continue
		}
		bucket := "other"
		for _, fn := range st.frames {
			if b, ok := classify(fn); ok {
				bucket = b
				break
			}
		}
		shares[bucket] += st.cpu.Seconds()
		total += st.cpu.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// stack is one sampled call stack: its CPU time and its functions, leaf
// first.
type stack struct {
	cpu    time.Duration
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// one block per stack, each opened by a "-----------+---" rule, whose
// first line starts with the stack's time.
func parseTraces(out []byte) ([]stack, error) {
	var stacks []stack
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			stacks = append(stacks, stack{})
			continue
		}
		if len(stacks) == 0 || strings.TrimSpace(line) == "" {
			continue // header
		}
		st := &stacks[len(stacks)-1]
		fields := strings.Fields(line)
		if len(st.frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("go tool pprof -traces: line %q: %w", line, err)
			}
			st.cpu, fields = d, fields[1:]
		}
		if len(fields) > 0 {
			st.frames = append(st.frames, fields[0])
		}
	}
	return stacks, sc.Err()
}

// classify names the bucket a frame's function belongs to; false passes
// the sample on to the caller.
func classify(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "harl/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, m := range cpuModules {
			if pkg == m {
				return m, true
			}
		}
		// Helper packages (stats) charge their caller.
		return "", false
	}
	if strings.HasPrefix(fn, "harl/") || strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	if name, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, g := range gcFuncs {
			if strings.HasPrefix(name, g) {
				return "gc", true
			}
		}
		for _, m := range mallocFuncs {
			if strings.HasPrefix(name, m) {
				return "malloc", true
			}
		}
	}
	return "", false
}

var gcFuncs = []string{
	"gc", "scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "markroot",
	"markBits", "findObject", "sweep", "bgsweep", "bgscavenge", "(*gcWork)", "(*gcControllerState)",
	"(*mspan).sweep", "(*sweepLocked)", "wbBuf", "bulkBarrier", "(*gcBits)", "typePointers",
	"(*mspan).typePointers", "(*mheap).freeSpan", "(*pageAlloc).scavenge", "(*scavengerState)",
}

var mallocFuncs = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "nextFreeFast",
	"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mspan).nextFreeIndex", "(*mspan).init",
	"memclrNoHeapPointers", "heapSetType", "heapBitsSetType", "publicationBarrier",
	"deductAssistCredit", "rawstring", "rawbyteslice", "(*pageAlloc).alloc",
}
