package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mobilestorage/internal/experiments"
)

func TestRunOne(t *testing.T) {
	reg := experiments.Registry()
	// Fast experiments succeed: the catalog dump and the OmniBook testbed's
	// Table 1.
	for _, id := range []string{"table2", "table1"} {
		if err := runOne(reg, id, 1); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	// Unknown IDs error.
	if err := runOne(reg, "table9000", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsAllRegistered(t *testing.T) {
	reg := experiments.Registry()
	for _, id := range experiments.IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("IDs() lists unregistered %q", id)
		}
	}
}

// TestConflictingModesExit runs the command with more than one mode flag:
// each combination must exit 2 naming the flags, before running or writing
// anything (-all -csv DIR used to write the CSVs and print no table). The
// test re-executes its own binary, whose child branch runs main with the
// newline-separated arguments in EXPERIMENTS_ARGS.
func TestConflictingModesExit(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	dir := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct{ args, want string }{
		{"-all\n-csv\n" + dir, "experiments: -all and -csv cannot be combined"},
		{"-csv\n" + dir + "\n-svg\n" + dir, "experiments: -csv and -svg cannot be combined"},
		{"-list\n-run\ntable2\n-all", "experiments: -list, -run and -all cannot be combined"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConflictingModesExit$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%q: exit %v, want status 2; output:\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%q: output %q does not contain %q", c.args, out, c.want)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a rejected run created %s (stat error %v)", dir, err)
	}
}
