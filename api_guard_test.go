package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// productionModules is where a caller counts: the non-test files of every
// package of this module (the facade, internal, cmd, examples) and of the
// repository benchmark, which is a module of its own.
var productionModules = []string{".", "benchmark"}

// apiAllowlist names the exported funcs, methods, constants and variables
// that stay without a production caller, and the exported struct fields
// that no production code sets, one reason each. Keys are "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field".
var apiAllowlist = map[string]string{
	"errs.StageError.Unwrap":         "interface satisfaction: errors.Is / errors.As walk it through an interface the errors package does not name",
	"errs.categorized.Unwrap":        "interface satisfaction: errors.Is / errors.As walk it through an interface the errors package does not name",
	"errs.retryAfterError.Unwrap":    "interface satisfaction: errors.Is / errors.As walk it through an interface the errors package does not name",
	"par.CancelledError.Unwrap":      "interface satisfaction: errors.Is / errors.As walk it through an interface the errors package does not name",
	"packstore.MmapSupported":        "build fact other packages' tests branch on: cli and vfs tests expect mappings only where the build makes them",
	"probe.SampleWithoutReplacement": "the paper's §5.1 random-sampling procedure: complexity_test.go's random-sample leg refits the model with it, and four TestSample* tests pin it",

	"scan.Options.BlockSize":     "test seam: block-split tests run every kernel across block boundaries at sizes production never picks",
	"scan.PlanOptions.TaskBytes": "test seam: task-granularity tests split a plan into more tasks than the default size would",
}

// TestExportedAPIHasProductionCallers keeps the internal packages' exported
// API equal to what production calls, every module package free of
// unexported functions nothing calls (checkUnexportedFuncs), and test
// support out of production (checkTestSupportImports). It type-checks every non-test
// package of the two modules (the file sets come from `go list`, so they
// are the default build's) and resolves each identifier to the object it
// denotes: an exported func, method, constant or package-level variable of
// a guarded package that no non-test file refers to is either dead or a
// test oracle, and belongs in a _test.go file. A method also counts as
// called when a type that has it satisfies an interface — one the
// production code spells, or a named one from a package it imports — that
// declares the method.
//
// An exported field of a guarded package's struct type is a knob, and a
// knob that no non-test file sets is one nobody turns (fieldsSet says what
// setting is). Fields with a json tag are exempt: decoders set them. The
// rule cannot see a knob that only its own package's defaulting writes —
// a `if c.X == 0 { c.X = … }` in production code counts as setting X.
func TestExportedAPIHasProductionCallers(t *testing.T) {
	prog := loadProduction(t)

	used := map[types.Object]bool{}
	for _, obj := range prog.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	// A method reaches an interface through any type whose method set holds
	// it: its receiver, or a struct that embeds the receiver (cmd/serve's
	// drainer promotes *server.Server's drain methods into cli.Drainer).
	ifaces, carriers := prog.interfaces(), prog.namedTypes()
	viaInterface := func(m *types.Func) bool {
		var declaring []*types.Interface
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil {
				declaring = append(declaring, it)
			}
		}
		for _, named := range carriers {
			for _, recv := range []types.Type{named, types.NewPointer(named)} {
				if sel := types.NewMethodSet(recv).Lookup(m.Pkg(), m.Name()); sel == nil || sel.Obj() != m {
					continue
				}
				for _, it := range declaring {
					if types.Implements(recv, it) {
						return true
					}
				}
			}
		}
		return false
	}

	seen := map[string]bool{}
	var orphans []string
	check := func(key string, obj types.Object, called bool) {
		seen[key] = true
		_, allowed := apiAllowlist[key]
		switch {
		case called && allowed:
			t.Errorf("allowlist entry %s has production callers (or, for a field, setters) now: remove it", key)
		case !called && !allowed:
			fix := "has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason"
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				fix = "is set by no production code: delete it or make it a constant, or allowlist it with a reason"
			}
			orphans = append(orphans, prog.fset.Position(obj.Pos()).String()+": "+key+" "+fix)
		}
	}
	set := prog.fieldsSet()
	guarded := prog.guarded()
	t.Logf("guarding %d internal packages", len(guarded))
	for _, pkg := range guarded {
		name := strings.TrimPrefix(pkg.Path(), internalPrefix)
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			switch obj := scope.Lookup(id).(type) {
			case *types.Func, *types.Const, *types.Var:
				if obj.Exported() {
					check(name+"."+id, obj, used[obj])
				}
			case *types.TypeName:
				recv, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < recv.NumMethods(); i++ {
					if m := recv.Method(i); m.Exported() {
						check(name+"."+id+"."+m.Name(), m, used[m] || viaInterface(m))
					}
				}
				st, ok := recv.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if _, decoded := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !f.Embedded() && !decoded {
						check(name+"."+id+"."+f.Name(), f, set[f])
					}
				}
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Error(o)
	}
	for key := range apiAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names nothing declared in the guarded packages", key)
		}
	}
	checkUnexportedFuncs(t, prog)
	checkTestSupportImports(t, prog)
}

// checkUnexportedFuncs closes the hole the exported-API walk leaves: an
// unexported package-level function of either module's non-test code
// that nothing refers to — not its own package's production files, not
// its in-package tests — is dead, and go vet does not report it. Only the
// declaring package can name an unexported function, so each package with
// in-package tests is type-checked once more together with them, and
// those uses count too.
func checkUnexportedFuncs(t *testing.T, prog *production) {
	uses := func(pkg *types.Package, info *types.Info) map[types.Object]bool {
		used := map[types.Object]bool{}
		for _, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok && f.Pkg() == pkg {
				used[f.Origin()] = true
			}
		}
		return used
	}
	checked := 0
	for path, pkg := range prog.pkgs {
		used := uses(pkg, prog.info)
		if lp, ok := prog.withTests[path]; ok {
			// The test-inclusive check declares fresh objects over freshly
			// parsed files; map their uses back to the production ones by
			// source position.
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			files := prog.parse(t, lp.Dir, append(append([]string(nil), lp.GoFiles...), lp.TestGoFiles...))
			withTests, err := prog.conf.Check(path, prog.fset, files, info)
			if err != nil {
				t.Fatalf("type-checking %s with its tests: %v", path, err)
			}
			byPos := map[token.Position]bool{}
			for obj := range uses(withTests, info) {
				byPos[prog.fset.Position(obj.Pos())] = true
			}
			for _, id := range pkg.Scope().Names() {
				if obj := pkg.Scope().Lookup(id); byPos[prog.fset.Position(obj.Pos())] {
					used[obj] = true
				}
			}
		}
		for _, id := range pkg.Scope().Names() {
			f, ok := pkg.Scope().Lookup(id).(*types.Func)
			if !ok || f.Exported() || (pkg.Name() == "main" && id == "main") {
				continue
			}
			checked++
			if !used[f] {
				t.Errorf("%s: %s.%s is referenced nowhere, tests included: delete it", prog.fset.Position(f.Pos()), path, id)
			}
		}
	}
	t.Logf("checked %d unexported package-level functions", checked)
}

// checkTestSupportImports keeps the oracles in tests: no non-test package
// of either module may import a test-support package, one whose last path
// element ends in "test" (scan/kerneltest, textproc/bmhtest,
// textproc/tokentest, corpus/corpustest). Those hold the reference
// implementations the kernels are pinned to; a reference production can
// call is a second implementation. They may import each other.
func checkTestSupportImports(t *testing.T, prog *production) {
	testSupport := func(path string) bool {
		return strings.HasSuffix(path[strings.LastIndex(path, "/")+1:], "test")
	}
	for path, pkg := range prog.pkgs {
		if testSupport(path) {
			continue
		}
		for _, imp := range pkg.Imports() {
			if prog.pkgs[imp.Path()] != nil && testSupport(imp.Path()) {
				t.Errorf("%s imports the test-support package %s: an oracle belongs to tests", path, imp.Path())
			}
		}
	}
}

// fieldsSet returns every struct field that a non-test file sets: names as
// a composite-literal key or fills by position, assigns (=, op=, also
// inside a selector or index chain such as x.F.G = v or x.F[i] = v), steps
// with ++ or --, or takes the address of (&x.F, which flag.IntVar and
// friends write through).
func (p *production) fieldsSet() map[*types.Var]bool {
	set := map[*types.Var]bool{}
	// mark records the fields selected along an lvalue chain.
	var mark func(e ast.Expr)
	mark = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if f, ok := p.info.Uses[e.Sel].(*types.Var); ok && f.IsField() {
				set[f.Origin()] = true
			}
			mark(e.X)
		case *ast.IndexExpr:
			mark(e.X)
		case *ast.StarExpr:
			mark(e.X)
		case *ast.ParenExpr:
			mark(e.X)
		}
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.CompositeLit:
				typ := p.info.Types[n].Type
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set[f.Origin()] = true
						}
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	return set
}

// internalPrefix is the import-path prefix of the packages the guard covers.
const internalPrefix = "repro/internal/"

// guarded returns every internal package that a non-test package imports.
// A new internal package is guarded as soon as production code uses it; a
// test-support package that only tests import (such as scan/kerneltest) is
// not.
func (p *production) guarded() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.Imports() {
			if strings.HasPrefix(imp.Path(), internalPrefix) && !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	return out
}

// production is the type-checked non-test code of both modules.
type production struct {
	fset *token.FileSet
	info *types.Info
	pkgs map[string]*types.Package // import path → package, module packages only
	std  map[string]*types.Package // the standard-library packages they import
	conf types.Config
	// files are the parsed non-test files of every module package.
	files []*ast.File
	// withTests holds each module package that has in-package test files,
	// by import path, for checkUnexportedFuncs.
	withTests map[string]listedPackage
}

// listedPackage is one package as `go list` describes it.
type listedPackage struct {
	ImportPath, Dir      string
	GoFiles, TestGoFiles []string
	Standard             bool
}

// loadProduction lists each module's packages with their dependencies —
// `go list -deps` prints a package after everything it imports — and
// type-checks the module's own from source in that order; standard
// packages come from the toolchain's export data.
func loadProduction(t *testing.T) *production {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH to list and type-check the modules with")
	}
	p := &production{
		fset: token.NewFileSet(),
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		pkgs:      map[string]*types.Package{},
		std:       map[string]*types.Package{},
		withTests: map[string]listedPackage{},
	}
	std := importer.Default()
	p.conf = types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := p.pkgs[path]; pkg != nil {
			return pkg, nil
		}
		pkg, err := std.Import(path)
		if err == nil {
			p.std[path] = pkg
		}
		return pkg, err
	})}
	for _, dir := range productionModules {
		cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,TestGoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var lp listedPackage
			if err := dec.Decode(&lp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if lp.Standard || p.pkgs[lp.ImportPath] != nil {
				continue
			}
			files := p.parse(t, lp.Dir, lp.GoFiles)
			pkg, err := p.conf.Check(lp.ImportPath, p.fset, files, p.info)
			if err != nil {
				t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
			}
			p.files = append(p.files, files...)
			p.pkgs[lp.ImportPath] = pkg
			if len(lp.TestGoFiles) > 0 {
				p.withTests[lp.ImportPath] = lp
			}
		}
	}
	return p
}

// parse parses the named files of one package directory.
func (p *production) parse(t *testing.T, dir string, names []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// namedTypes returns every package-level defined type of production code
// that can carry methods.
func (p *production) namedTypes() []*types.Named {
	var out []*types.Named
	for _, pkg := range p.pkgs {
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			if tn, ok := scope.Lookup(id).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					out = append(out, named)
				}
			}
		}
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces collects every interface with methods that production code
// could hand a guarded type to: each one it writes out (declared or
// inline), each named one of a standard package it imports, and error.
func (p *production) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, tv := range p.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, pkg := range p.std {
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			if tn, ok := scope.Lookup(id).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	return out
}
