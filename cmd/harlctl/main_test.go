package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs one dispatch with os.Stdout redirected to a pipe and
// returns what the command printed alongside its error.
func capture(t *testing.T, cmd string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := dispatch(cmd, args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestSummaryOnTinyTrace(t *testing.T) {
	out, err := capture(t, "summary", "-trace", "testdata/tiny.trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"requests:   24", "4 reads, 20 writes", "open files: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDivideOnTinyTrace(t *testing.T) {
	out, err := capture(t, "divide", "-trace", "testdata/tiny.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "regions (threshold") {
		t.Errorf("divide output malformed:\n%s", out)
	}
}

func TestOptimizeShowRoundTrip(t *testing.T) {
	rst := filepath.Join(t.TempDir(), "tiny.rst")
	out, err := capture(t, "optimize", "-trace", "testdata/tiny.trace", "-out", rst, "-probes", "50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RST with") || !strings.Contains(out, "threshold used") {
		t.Errorf("optimize output malformed:\n%s", out)
	}
	out, err = capture(t, "show", "-rst", rst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "H stripe") {
		t.Errorf("show output malformed:\n%s", out)
	}
}

// TestShowReplicationColumn pins show's output for a v1 table, which
// has no R column, and for a v2 table, whose R column reports every
// region's replication factor.
func TestShowReplicationColumn(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ rst, want string }{
		{"#harl-rst v1\n0 100 4096 8192\n",
			"region offset         end            H stripe   S stripe  \n" +
				"0      0              100            4KB        8KB       \n"},
		{"#harl-rst v2\n0 100 4096 8192 2\n100 200 0 65536 1\n",
			"region offset         end            H stripe   S stripe   R\n" +
				"0      0              100            4KB        8KB        2\n" +
				"1      100            200            0KB        64KB       1\n"},
	} {
		path := filepath.Join(dir, "t.rst")
		if err := os.WriteFile(path, []byte(c.rst), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := capture(t, "show", "-rst", path)
		if err != nil {
			t.Fatal(err)
		}
		if out != c.want {
			t.Errorf("show %q:\n%q\nwant\n%q", c.rst, out, c.want)
		}
	}
}

func TestTraceCommandQuick(t *testing.T) {
	json := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, "trace", "-quick", "-out", json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spans written") || !strings.Contains(out, "ior: write") {
		t.Errorf("trace output malformed:\n%s", out)
	}
	data, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"displayTimeUnit"`) {
		t.Error("trace export is not trace_event JSON")
	}
}

func TestMonitorCommandQuick(t *testing.T) {
	out, err := capture(t, "monitor", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"layout health", "advice: restripe", "detected"} {
		if !strings.Contains(out, want) {
			t.Errorf("monitor missing %q:\n%s", want, out)
		}
	}
}

func TestHealthExitCodes(t *testing.T) {
	out, err := capture(t, "health", "-quick")
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("shifted health err = %v, want exit code 1", err)
	}
	if !strings.Contains(out, "STALE") {
		t.Errorf("stale health output malformed:\n%s", out)
	}
	out, err = capture(t, "health", "-quick", "-shift=false")
	if err != nil {
		t.Fatalf("control health: %v", err)
	}
	if !strings.Contains(out, "healthy") {
		t.Errorf("control health output malformed:\n%s", out)
	}
}

func TestHealthReplStatus(t *testing.T) {
	out, err := capture(t, "health", "-quick", "-repl")
	if err != nil {
		t.Fatalf("health -repl: %v\n%s", err, out)
	}
	for _, want := range []string{"replica/view status", "unreplicated", "r=2", "view changes", "available: every replica group"} {
		if !strings.Contains(out, want) {
			t.Errorf("health -repl missing %q:\n%s", want, out)
		}
	}
}

func TestCritPathCommandQuick(t *testing.T) {
	json := filepath.Join(t.TempDir(), "highlight.json")
	out, err := capture(t, "critpath", "-quick", "-out", json)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path:", "by kind:", "by tier:", "highlighted trace written"} {
		if !strings.Contains(out, want) {
			t.Errorf("critpath missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"critical-path"`) {
		t.Error("highlight export missing the critical-path track")
	}
}

func TestWhatIfDriftCommandQuick(t *testing.T) {
	out, err := capture(t, "whatif", "-quick", "-drift")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"what-if baseline:", "#1 restripe/r", "causal gain", "(measured)"} {
		if !strings.Contains(out, want) {
			t.Errorf("whatif -drift missing %q:\n%s", want, out)
		}
	}
}

func TestSLOCommandFiresOnDoubleCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	out, err := capture(t, "slo", "-bundle-dir", dir)
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("slo under double-crash err = %v, want exit code 1\n%s", err, out)
	}
	for _, want := range []string{"ALERT", "burn", "bundle:", "SLO BURN:"} {
		if !strings.Contains(out, want) {
			t.Errorf("slo output missing %q:\n%s", want, out)
		}
	}
	// The incident bundles landed on disk under the seed directory.
	matches, err := filepath.Glob(filepath.Join(dir, "seed-1", "*", "trace.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no bundle traces under %s (err %v)", dir, err)
	}
}

func TestRecordCommandQuick(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	out, err := capture(t, "record", "-quick", "-bundle-dir", dir)
	if err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	for _, want := range []string{"incident: record", "recorder:", "bundle written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("record output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{"trace.json", "metrics.txt", "blame.txt", "alert.txt"} {
		matches, err := filepath.Glob(filepath.Join(dir, "seed-1", "record-*", f))
		if err != nil || len(matches) != 1 {
			t.Fatalf("bundle artifact %s not on disk under %s (err %v)", f, dir, err)
		}
	}
}

func TestMetricsPromDeterministic(t *testing.T) {
	first, err := capture(t, "metrics", "-quick", "-prom")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE pfs_disk_ops_total counter", "# virtual time", `server="`} {
		if !strings.Contains(first, want) {
			t.Errorf("prom export missing %q:\n%.400s", want, first)
		}
	}
	second, err := capture(t, "metrics", "-quick", "-prom")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("prometheus export is not byte-deterministic across replays")
	}
}

func TestUnknownCommandUsage(t *testing.T) {
	var code exitCode
	if _, err := capture(t, "bogus"); !errors.As(err, &code) || code != 2 {
		t.Fatalf("unknown command err = %v, want exit code 2", err)
	}
}

// doctor confirms the seeded straggler with exit code 1 and a report
// byte-identical to the committed golden; the fault-free control exits
// clean.
func TestDoctorCommandGoldenAndExitCodes(t *testing.T) {
	out, err := capture(t, "doctor", "-quick", "-seed", "1")
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("doctor straggler run err = %v, want exit code 1\n%s", err, out)
	}
	for _, want := range []string{"[straggle] h1 (hdd)", "skew heatmap", "CONFIRMED: 1 straggler(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("doctor output missing %q:\n%s", want, out)
		}
	}
	golden, gerr := os.ReadFile("testdata/doctor_quick_seed1.txt")
	if gerr != nil {
		t.Fatal(gerr)
	}
	if out != string(golden) {
		t.Errorf("doctor report drifted from testdata/doctor_quick_seed1.txt:\n got:\n%s\nwant:\n%s", out, golden)
	}

	out, err = capture(t, "doctor", "-quick", "-control")
	if err != nil {
		t.Fatalf("doctor control: %v\n%s", err, out)
	}
	for _, want := range []string{"no anomalies", "clean: no straggler confirmed"} {
		if !strings.Contains(out, want) {
			t.Errorf("doctor control output missing %q:\n%s", want, out)
		}
	}
}
