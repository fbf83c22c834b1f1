package mobilestorage

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// intendedInlining lists, per package, the functions that every replayed
// record reaches and that must stay small enough for the compiler to
// inline at their call sites. A change that pushes one over the inlining
// budget costs a call per record on the hot path without changing any
// output, so nothing else would notice it.
var intendedInlining = map[string][]string{
	"mobilestorage/internal/energy": {"(*Meter).Accrue"},
	"mobilestorage/internal/stats": {
		"(*Summary).Add", "(*Summary).AddTime", "(*DurationLayout).Bucket",
	},
	"mobilestorage/internal/obs":   {"(*Scope).Wants", "(*Scope).Emit", "(*Counter).Inc"},
	"mobilestorage/internal/cache": {"(*Cache).CountLookup"},
	"mobilestorage/internal/core":  {"(*dramRun).hit"},
}

// inlineLine matches the compiler's "-m" report on one function, and with
// -m=2 the reason it was not inlined: "energy.go:73:6: cannot inline
// (*Meter).Accrue: function too complex: cost 173 exceeds budget 80".
var inlineLine = regexp.MustCompile(`^\S+\.go:\d+:\d+: (can|cannot) inline (\S+?)(?::| with |$)(.*)`)

// goTool returns the go command of the toolchain that built the running
// test, as cmd/compile's tests find theirs, so that the inlining report
// comes from the same compiler and inliner. It falls back to the go
// command on PATH when that toolchain's tree is not known or not there
// (a test binary built with -trimpath, or copied elsewhere).
func goTool() (string, error) {
	if root := runtime.GOROOT(); root != "" {
		p := filepath.Join(root, "bin", "go")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return exec.LookPath("go")
}

// TestIntendedInlining builds the packages of intendedInlining with the
// compiler's inlining report, as cmd/compile's test of the same name does
// for the runtime, and fails on each listed function the compiler does
// not report as inlinable.
func TestIntendedInlining(t *testing.T) {
	goCmd, err := goTool()
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	pkgs := make([]string, 0, len(intendedInlining))
	for pkg := range intendedInlining {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	cmd := exec.Command(goCmd, append([]string{"build", "-gcflags=-m=2"}, pkgs...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}

	// The compiler reports each package under a "# <import path>" line.
	// verdict["<import path> <function>"] is "" for a function it can
	// inline and its reason for one it cannot.
	verdict := make(map[string]string)
	var pkg string
	for _, line := range strings.Split(string(out), "\n") {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			pkg = p
		} else if m := inlineLine.FindStringSubmatch(line); m != nil {
			reason := ""
			if m[1] == "cannot" {
				reason = strings.TrimSpace(m[3])
			}
			verdict[pkg+" "+m[2]] = reason
		}
	}

	for _, pkg := range pkgs {
		for _, fn := range intendedInlining[pkg] {
			reason, ok := verdict[pkg+" "+fn]
			switch {
			case !ok:
				t.Errorf("%s: the compiler reported nothing for %s; was it renamed or deleted?", pkg, fn)
			case reason != "":
				t.Errorf("%s: %s is no longer inlinable: %s", pkg, fn, reason)
			}
		}
	}
}
