package gpgpu_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// envReads are the os functions that read the process environment.
var envReads = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// TestInternalReadsNoEnvironment keeps the libraries free of environment
// reads: settings reach internal/ only as arguments and Config fields that
// the commands parse from their flags. It parses every non-test Go file
// under internal/ and fails on each call of os.Getenv, os.LookupEnv or
// os.Environ, whatever name the file imports os under.
func TestInternalReadsNoEnvironment(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value != `"os"` {
				continue
			}
			name := "os"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && envReads[sel.Sel.Name] {
					t.Errorf("%s: os.%s: libraries take settings from their callers, not the environment",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
