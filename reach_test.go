package mobilestorage

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowed lists the functions and methods that no non-test code of
// this module references but that stay, each with its reason. Names are
// types.Func full names without the "mobilestorage/internal/" prefix.
var reachAllowed = map[string]string{
	"(*core.TracePrep).Err":           "benchmark/ calls it",
	"(*fleet.Job).Finished":           "benchmark/ calls it",
	"(*obsreport.DecodeError).Unwrap": "errors.Is and errors.As call it",
	"(*energy.Meter).StateJ":          "tests in other packages read per-state energy",
	"obs.NewCollector":                "tests in other packages capture events with it",
	"(*obs.Collector).Events":         "tests in other packages capture events with it",
	"(*obs.Timeline).Counter":         "tests in other packages read sampled counters",
	"(*obs.Timeline).Gauge":           "tests in other packages read sampled gauges",
	"(*plot.Chart).SVG":               "tests in other packages render charts with it",
	"(*stats.Summary).Min":            "tests in other packages read it",
	"(*index.BTree).checkInvariants":  "oracle: the B+tree tests check every mutation against it",
	"(workload.Mixture).Mean":         "oracle: the analytic mean Draw is tested against",
	"(*sram.Buffer).OverflowStall":    "oracle: compared with the frozen reference buffer",
	"fleet.expand":                    "test helper; moving it to a test file would not shrink the package",
}

// reachSkipped holds what the scan does not check: the frozen reference
// path, the oracle the equivalence tests compare against, and the two
// test-support packages.
var reachSkipped = []string{
	"internal/core/refsim.go", "internal/cache/refcache.go", "internal/trace/reflayout.go",
	"internal/core/difftest/", "internal/stats/statstest/",
}

// TestEveryFunctionIsReached fails on each function or method of the
// module (examples included) that no non-test code references, unless
// reachAllowed keeps it. A call through an interface names the
// interface's method, not the concrete one, so a method counts as reached
// when it satisfies an interface of this module, fmt.Stringer, error or
// flag.Value, or when a method of its name is called through an interface
// or type parameter this module declares.
func TestEveryFunctionIsReached(t *testing.T) {
	l := loadModule(t)
	var ifaces []*types.Interface
	for _, name := range []string{"fmt.Stringer", "flag.Value"} {
		pkg, sym, _ := strings.Cut(name, ".")
		p, err := l.Import(pkg)
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(sym).Type().Underlying().(*types.Interface))
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for path := range l.files {
		p := l.pkgs[path]
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}

	// Every function and method declared, every one referenced from
	// outside its own body, and the names called through this module's
	// interfaces and type parameters.
	declared := map[*types.Func]string{}
	reached := map[*types.Func]bool{}
	dynamic := map[string]bool{}
	for _, files := range l.files {
		for _, f := range files {
			skip := l.skipped(f.Pos())
			for _, decl := range f.Decls {
				var self *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = l.info.Defs[fd.Name].(*types.Func)
					if !skip && self.Name() != "init" && self.Name() != "main" && !satisfies(self, ifaces) {
						declared[self] = shortName.Replace(self.FullName())
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := l.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							reached[fn.Origin()] = true
							recv := fn.Type().(*types.Signature).Recv()
							if recv != nil && types.IsInterface(recv.Type()) && fn.Pkg() != nil && l.files[fn.Pkg().Path()] != nil {
								dynamic[fn.Name()] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	var problems []string
	allowed := maps.Clone(reachAllowed) // entries not yet matched
	for fn, name := range declared {
		method := fn.Type().(*types.Signature).Recv() != nil
		if reached[fn] || method && dynamic[fn.Name()] {
			continue
		}
		if _, ok := allowed[name]; ok {
			delete(allowed, name)
		} else {
			problems = append(problems, name+" has no non-test reference: delete it, or add it to reachAllowed with a reason")
		}
	}
	for name := range allowed {
		problems = append(problems, name+" is on reachAllowed but is reached or gone: take it off")
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestEveryFieldIsRead fails on each unexported struct field of the
// module that non-test code never reads, such as a counter only ever
// incremented. An assignment or increment whose target is the field, or a
// keyed composite-literal element, writes it; any other use reads it, and
// so does a map hashing a struct key that holds it. Embedded fields are
// not checked.
func TestEveryFieldIsRead(t *testing.T) {
	l := loadModule(t)
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
	}
	read := map[*types.Var]bool{}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
	var readKey func(types.Type)
	readKey = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readKey(u.Field(i).Type())
			}
		case *types.Array:
			readKey(u.Elem())
		}
	}
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			readKey(m.Key())
		}
	}

	var problems []string
	for id, obj := range l.info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Exported() || v.Embedded() || v.Name() == "_" || read[v] || l.skipped(id.Pos()) {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: field %s is never read: delete it", l.fset.Position(id.Pos()), v.Name()))
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

var (
	moduleOnce sync.Once
	module     *reachLoader
	moduleErr  error
)

// loadModule parses and type-checks every non-test file of the module
// (examples included), once per test binary.
func loadModule(t *testing.T) *reachLoader {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	moduleOnce.Do(func() { module, moduleErr = parseModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

func parseModule() (*reachLoader, error) {
	l := &reachLoader{fset: token.NewFileSet(), files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, std: importer.Default(),
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." &&
				(err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // another module, test data, tool state
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, 0)
		if err == nil {
			pkg := filepath.ToSlash(filepath.Join("mobilestorage", filepath.Dir(path)))
			l.files[pkg] = append(l.files[pkg], f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for path := range l.files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reachLoader type-checks the module's packages from source, importing
// each on first use, and the standard library from export data.
type reachLoader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	l.pkgs[path] = p
	return p, err
}

// skipped reports whether pos lies in a file or directory of reachSkipped.
func (l *reachLoader) skipped(pos token.Pos) bool {
	file := filepath.ToSlash(l.fset.Position(pos).Filename)
	for _, s := range reachSkipped {
		if strings.HasPrefix(file, s) {
			return true
		}
	}
	return false
}

// satisfies reports whether fn is a method that, with the rest of its
// receiver's method set, implements one of ifaces.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// shortName trims the module prefix off a types.Func full name.
var shortName = strings.NewReplacer("mobilestorage/internal/", "", "mobilestorage/", "")
