package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCoreKnowsNoSlotLayout pins the one owner of slot bytes: package slab
// locates a slot in a page, its value and its chain pointer, and package
// mvcc writes envelope bytes, so no non-test file of this package decodes
// bytes itself (an encoding/binary import) or computes an offset inside a
// slot (slab.HeaderSize, SlotOffset).
func TestCoreKnowsNoSlotLayout(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/binary" {
				t.Errorf("%s: imports encoding/binary", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if sel.Sel.Name == "SlotOffset" || sel.Sel.Name == "HeaderSize" && pkg != nil && pkg.Name == "slab" {
				t.Errorf("%s: uses %s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test source file found")
	}
}
