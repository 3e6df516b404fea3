package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"harl/internal/cluster"
)

// TestQuickFiguresGolden regenerates every registered figure at quick
// scale, seed 1, and compares the output byte for byte with what
// `go run ./cmd/experiments -quick` printed when the golden was
// committed (its trailing timing line dropped). Regenerate with:
//
//	go run ./cmd/experiments -quick | head -n -1 > internal/experiments/testdata/quick_seed1.txt
//
// The figures run on the heap reference engine, while the golden was
// printed on the timer wheel, so this is also the wheel/heap proof for
// every figure. Each figure gets its own counting Attach hook, which
// must see at least one testbed, every one of them on the heap engine:
// the Options contract that Attach and HeapEngine reach every testbed a
// driver builds.
func TestQuickFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all 22 figures; run without -short")
	}
	want, err := os.ReadFile("testdata/quick_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	figs := Figures()
	attached := make([]atomic.Int64, len(figs))
	onWheel := make([]atomic.Int64, len(figs))
	run := make([]Figure, len(figs))
	for i, fig := range figs {
		run[i] = Figure{Name: fig.Name, Run: func(o Options) (*Table, error) {
			o.Attach = func(tb *cluster.Testbed) {
				attached[i].Add(1)
				if !tb.Config.HeapEngine {
					onWheel[i].Add(1)
				}
			}
			return fig.Run(o)
		}}
	}
	o := QuickOptions()
	o.HeapEngine = true
	tables, err := RunParallel(o, run, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, fig := range figs {
		if attached[i].Load() == 0 {
			t.Errorf("figure %s: Attach never ran", fig.Name)
		}
		if n := onWheel[i].Load(); n > 0 {
			t.Errorf("figure %s: %d testbed(s) ignored HeapEngine", fig.Name, n)
		}
	}
	var got strings.Builder
	for i, table := range tables {
		fmt.Fprintln(&got, table)
		fmt.Fprintf(&got, "(figure %s)\n\n", figs[i].Name)
	}
	if got.String() != string(want) {
		t.Errorf("quick figures differ from testdata/quick_seed1.txt:\n%s", firstDiff(got.String(), string(want)))
	}
}

// firstDiff reports the first line where got and want part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}
