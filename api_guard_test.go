package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// guardedPackages are the engine packages whose exported funcs and
// methods must each be reached by a command, the harness, an example or
// another non-test file.
var guardedPackages = []string{
	"vfs", "packstore", "scan", "textproc", "par", "core", "dist",
	"server", "errs", "retry", "fault", "cli", "binpack",
}

// productionRoots is where a caller counts: everything that ships or
// that the repository benchmark builds. Test files never count.
var productionRoots = []string{"internal", "cmd", "examples", "benchmark", "repro.go"}

// apiAllowlist names the exported funcs and methods that stay without a
// production caller, one reason each. Keys are "pkg.Func" or
// "pkg.Type.Method".
var apiAllowlist = map[string]string{
	"errs.StageError.Unwrap":             "interface satisfaction: errors.Is / errors.As walk it",
	"errs.categorized.Unwrap":            "interface satisfaction: errors.Is / errors.As walk it",
	"errs.retryAfterError.Unwrap":        "interface satisfaction: errors.Is / errors.As walk it",
	"par.CancelledError.Unwrap":          "interface satisfaction: errors.Is / errors.As walk it",
	"packstore.RecoverCtx":               "recovery code: rebuilds the index of a pack whose footer never landed; what the 'try Recover' errors point at",
	"packstore.Pack.Truncated":           "recovery code: tells a RecoverCtx caller the scan stopped at a torn record",
	"dist.Local.SetHealth":               "test seam: quarantine and probe tests flip an in-process worker's health",
	"vfs.FS.Remove":                      "library surface: repro.FS is the facade's file-system type and Remove completes Add / Get; its cache-invalidation leg is tested",
	"textproc.Searcher.CountReader":      "library surface: repro.NewSearcher's streaming count, and the single-pattern oracle every MultiSearcher engine is held to",
	"textproc.MultiSearcher.CountReader": "library surface: repro.NewMultiSearcher's streaming count for callers outside the scan engine",
	"textproc.NewFoldedSearcher":         "oracle: scan's differential test holds the folded match kernel to it, from another package",
	"textproc.NewRegexpSearcher":         "library surface: the paper's complex-pattern grep mode, measured by BenchmarkGrepRegexp1MB",
	"textproc.Tagger.TagReader":          "library surface: bounded-memory tagging of merged unit files (the Fig. 7 failure mode); seven tests, no command yet",
	"binpack.NextFit":                    "ablation baseline: BenchmarkHeuristicComparison situates the paper's first-fit choice against it",
	"binpack.FirstFitDecreasing":         "ablation baseline: BenchmarkAblationPackingQuality / BenchmarkHeuristicComparison",
	"binpack.BestFitDecreasing":          "ablation baseline: BenchmarkHeuristicComparison",
	"binpack.LeastLoadedDecreasing":      "ablation baseline: the LPT rule LeastLoaded is compared with in tests",
}

// TestExportedAPIHasProductionCallers keeps the engine packages' exported
// API equal to what production calls: an exported func or method whose
// name appears nowhere in non-test code except at its own declaration is
// either dead or a test oracle, and belongs in a _test.go file.
func TestExportedAPIHasProductionCallers(t *testing.T) {
	guarded := map[string]string{} // directory → package name
	for _, pkg := range guardedPackages {
		guarded[filepath.Join("internal", pkg)] = pkg
	}
	// uses[name] counts identifier occurrences across production code;
	// declCount[name] counts how many of those are the declarations
	// collected here, so a name used only where it is declared nets to
	// zero. Matching is by name, not by type: a method is "called" if any
	// identifier anywhere spells its name.
	type decl struct{ key, name, pos string }
	var decls []decl
	uses, declCount := map[string]int{}, map[string]int{}
	fset := token.NewFileSet()
	for _, root := range productionRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name]++
				}
				return true
			})
			pkg, ok := guarded[filepath.Dir(path)]
			if !ok {
				return nil
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := pkg + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
				declCount[fd.Name.Name]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := apiAllowlist[d.key]
		switch called := uses[d.name] > declCount[d.name]; {
		case called && allowed:
			t.Errorf("allowlist entry %s has production callers now: remove it", d.key)
		case !called && !allowed:
			orphans = append(orphans, d.pos+": "+d.key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason", o)
	}
	for key := range apiAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s names nothing declared in the guarded packages", key)
		}
	}
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
