package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as btiosim itself: with
// BTIOSIM_ARGS set, the process runs main with those arguments instead
// of the tests, so exit codes and stdout are observed exactly as a
// user sees them.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BTIOSIM_ARGS"); ok {
		os.Args = append([]string{"btiosim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBTIOSim runs btiosim with args in a child process and returns its
// stdout, stderr and exit code.
func runBTIOSim(t *testing.T, args string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "BTIOSIM_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestBTIOSimGolden pins btiosim's output for the fixed and harl layouts
// under both I/O subtypes on class S with four processes, byte for byte.
func TestBTIOSimGolden(t *testing.T) {
	for _, c := range []struct{ golden, args string }{
		{"full_fixed_64K.txt", "-class S -ranks 4 -layout fixed:64K"},
		{"full_harl.txt", "-class S -ranks 4 -layout harl"},
		{"simple_fixed_64K.txt", "-class S -ranks 4 -subtype simple -layout fixed:64K"},
		{"simple_harl.txt", "-class S -ranks 4 -subtype simple -layout harl"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			out, stderr, code := runBTIOSim(t, c.args)
			if code != 0 {
				t.Fatalf("btiosim %s: exit %d: %s", c.args, code, stderr)
			}
			if out != string(want) {
				t.Errorf("btiosim %s:\n got %q\nwant %q", c.args, out, want)
			}
		})
	}
}

// TestBTIOSimRejectsZeroNodes is the regression for -nodes 0, which
// used to panic with an integer divide by zero.
func TestBTIOSimRejectsZeroNodes(t *testing.T) {
	_, stderr, code := runBTIOSim(t, "-nodes 0 -class S -ranks 4")
	if code != 2 || !strings.Contains(stderr, "-nodes must be at least 1") || strings.Contains(stderr, "panic:") {
		t.Fatalf("btiosim -nodes 0: exit %d, stderr:\n%s", code, stderr)
	}
}
