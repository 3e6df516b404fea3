package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as iorsim itself: with
// IORSIM_ARGS set, the process runs main with those arguments instead
// of the tests, so exit codes and stdout are observed exactly as a
// user sees them.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("IORSIM_ARGS"); ok {
		os.Args = append([]string{"iorsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runIORSim runs iorsim with args in a child process and returns its
// stdout, stderr and exit code.
func runIORSim(t *testing.T, args string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IORSIM_ARGS="+args)
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

// TestIORSimGolden pins iorsim's output for each layout kind on a
// 64 MB file byte for byte.
func TestIORSimGolden(t *testing.T) {
	for _, c := range []struct{ golden, args string }{
		{"fixed_64K.txt", "-file 64M -layout fixed:64K"},
		{"varied_32K_160K.txt", "-file 64M -layout varied:32K:160K"},
		{"random.txt", "-file 64M -layout random"},
		{"harl.txt", "-file 64M -layout harl"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			out, stderr, code := runIORSim(t, c.args)
			if code != 0 {
				t.Fatalf("iorsim %s: exit %d: %s", c.args, code, stderr)
			}
			if out != string(want) {
				t.Errorf("iorsim %s:\n got %q\nwant %q", c.args, out, want)
			}
		})
	}
}

// TestIORSimRejectsZeroNodes is the regression for -nodes 0, which
// used to panic with an integer divide by zero.
func TestIORSimRejectsZeroNodes(t *testing.T) {
	_, stderr, code := runIORSim(t, "-nodes 0 -file 64M")
	if code != 2 || !strings.Contains(stderr, "-nodes must be at least 1") || strings.Contains(stderr, "panic:") {
		t.Fatalf("iorsim -nodes 0: exit %d, stderr:\n%s", code, stderr)
	}
}
