package agentring_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// goFiles maps every package directory of the module to its .go
// files, _test.go files only when tests is set.
func goFiles(t *testing.T, tests bool) map[string][]string {
	t.Helper()
	pkgDirs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgDirs[dir] = append(pkgDirs[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDirs) < 20 {
		t.Fatalf("found only %d package directories; the walk looks broken", len(pkgDirs))
	}
	return pkgDirs
}

// TestEveryPackageHasPackageDocs is the docs gate: every package in the
// module — the facade, every internal package, every command, every
// example — must carry package-level documentation (a doc comment on
// its package clause in at least one non-test file). New packages fail
// this test, and therefore CI, until they are documented.
func TestEveryPackageHasPackageDocs(t *testing.T) {
	fset := token.NewFileSet()
	for dir, files := range goFiles(t, false) {
		documented := false
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Errorf("%s: %v", file, err)
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no package documentation: add a doc.go or a doc comment on the package clause", dir)
		}
	}
}

// TestReferenceIsTestOnly keeps the paper-shaped reference forms and
// their coroutine adapter (internal/reference) out of every program:
// only _test.go files may import the package, so production code runs
// each algorithm in one form, its frame.
func TestReferenceIsTestOnly(t *testing.T) {
	const ref = "agentring/internal/reference"
	fset := token.NewFileSet()
	for dir, files := range goFiles(t, false) {
		if filepath.ToSlash(dir) == "internal/reference" {
			continue
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("%s: %v", file, err)
				continue
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"`+ref+`"` {
					t.Errorf("%s imports %s, which only tests may import", file, ref)
				}
			}
		}
	}
}

// TestNodeIDIsBenchOnly keeps node ids plain ints. The ring.NodeID
// alias remains only because the benchmark harness (bench/) names it,
// so no other Go file of the module, tests included, may name it.
func TestNodeIDIsBenchOnly(t *testing.T) {
	const ring = `"agentring/internal/ring"`
	fset := token.NewFileSet()
	for dir, files := range goFiles(t, true) {
		if d := filepath.ToSlash(dir); d == "bench" || d == "internal/ring" {
			continue
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Errorf("%s: %v", file, err)
				continue
			}
			name := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == ring {
					name = "ring"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "NodeID" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s: names %s.NodeID; node ids are plain ints outside bench/", fset.Position(sel.Pos()), name)
					}
				}
				return true
			})
		}
	}
}
