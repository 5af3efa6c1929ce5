package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeRef matches a facade reference in documentation text.
var facadeRef = regexp.MustCompile(`\brepro\.([A-Z]\w*)`)

// TestFacadeServesItsCallers keeps repro.go equal to what its callers use.
// Every exported name it declares must be referenced as repro.X by a
// program under examples/, appear in a Go code block of README.md or of
// the package doc, or be named by the signature of a declaration that
// one of those keeps (Reshape's *FS, NewPipeline's *Pipeline). Anything
// else is an alias that keeps internal code alive for no caller: the API
// guard counts the facade as production. Every reference the examples
// and the docs make must also resolve to a declared name, so the
// documentation cannot cite a name the facade no longer has.
func TestFacadeServesItsCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "repro.go", nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}

	// sigs maps each exported facade name to the declaration that names
	// it, for the signature walk.
	sigs := map[string]ast.Node{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				sigs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						sigs[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							sigs[n.Name] = s.Type
						}
					}
				}
			}
		}
	}

	// used maps each referenced name to where the first reference is.
	used := map[string]string{}
	use := func(name, where string) {
		if _, ok := used[name]; !ok {
			used[name] = where
		}
	}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "repro" {
					use(sel.Sel.Name, fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inGo := false
	for i, line := range strings.Split(string(readme), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			inGo = !inGo && strings.TrimSpace(line) == "```go"
		case inGo:
			for _, m := range facadeRef.FindAllStringSubmatch(line, -1) {
				use(m[1], "README.md:"+strconv.Itoa(i+1))
			}
		}
	}
	for _, line := range strings.Split(facade.Doc.Text(), "\n") {
		if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "    ") {
			for _, m := range facadeRef.FindAllStringSubmatch(line, -1) {
				use(m[1], "the package doc's code")
			}
		}
	}

	// Close over the signatures of what is kept.
	for changed := true; changed; {
		changed = false
		for name := range used {
			sig := sigs[name]
			if sig == nil {
				continue
			}
			ast.Inspect(sig, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if _, declared := sigs[id.Name]; declared {
						if _, seen := used[id.Name]; !seen {
							used[id.Name] = "the signature of " + name
							changed = true
						}
					}
				}
				return true
			})
		}
	}

	var names []string
	for name := range sigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := used[name]; !ok {
			t.Errorf("repro.%s has no caller in examples/, README.md's or the package doc's Go code, or a kept signature: delete it", name)
		}
	}
	var refs []string
	for name := range used {
		refs = append(refs, name)
	}
	sort.Strings(refs)
	for _, name := range refs {
		if _, ok := sigs[name]; !ok {
			t.Errorf("%s: repro.%s is not declared in repro.go", used[name], name)
		}
	}
}
