package analysis

import (
	"go/ast"
	"go/types"
)

// PoolEscape guards the zero-allocation data plane: buffers carved from a
// slab.Arena (valid only until the next Reset) and the pooled per-request
// scratch buffers (kv.Request.ScanBuf / ValueBuf, recycled when the request
// completes) must stay owned by the code that borrowed them. Storing such a
// buffer into a struct field, a package-level variable, or a map, or
// sending it on a channel, publishes memory that the pool will concurrently
// reuse — a use-after-reset that no race detector can see in the
// single-goroutine simulator, and that corrupts results silently.
//
// Taint starts at Arena.Alloc results and Request.ScanBuf /
// ValueBuf reads, propagates through assignment, slicing, and append, and
// is cleansed by any other call (copies make owned memory). Two sanctioned
// publications exist: the give-back protocol (engines may store a possibly
// regrown scratch slice back into the request's own ScanBuf / ValueBuf
// field, returning the buffer to its owner) and arena-scoped containers (a
// struct holding an *Arena field may park that arena's memory in its own
// fields, since the container and the memory already share a lifetime).
//
// Test files are exempt: tests may pin buffers to assert on pooling itself.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "forbid arena- and pool-derived buffers escaping into fields, globals, maps, or channels without a copy",
	Run:  runPoolEscape,
}

// pooledFields are the kv.Request scratch-buffer fields. Reading one yields
// pooled memory; writing one on the request itself is the give-back.
var pooledFields = map[string]bool{"ScanBuf": true, "ValueBuf": true}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkPoolEscape(pass, f)
	}
}

// structOwnsArena reports whether t (a store's receiver type) is a struct
// with an Arena-typed field: such a container co-owns the arena's lifetime.
func structOwnsArena(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if namedTypeName(st.Field(i).Type()) == "Arena" {
			return true
		}
	}
	return false
}

// isArenaAlloc reports whether call is Arena.Alloc.
func (p *Pass) isArenaAlloc(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Alloc" {
		return false
	}
	return p.recvTypeName(sel) == "Arena"
}

// isPooledFieldSel reports whether sel is a ScanBuf/ValueBuf selection on a
// value of named type Request.
func (p *Pass) isPooledFieldSel(sel *ast.SelectorExpr) bool {
	return pooledFields[sel.Sel.Name] && p.recvTypeName(sel) == "Request"
}

func checkPoolEscape(pass *Pass, f *ast.File) {
	info := pass.Pkg.Info
	tainted := make(map[types.Object]bool)

	// derives reports whether evaluating e yields pool-backed memory.
	var derives func(e ast.Expr) bool
	derives = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return derives(e.X)
		case *ast.Ident:
			obj := info.Uses[e]
			return obj != nil && tainted[obj]
		case *ast.SliceExpr:
			return derives(e.X)
		case *ast.IndexExpr:
			// An element of a tainted container is tainted only when it is
			// itself a reference (e.g. [][]byte); indexing bytes is a copy.
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Pointer:
					return derives(e.X)
				}
			}
			return false
		case *ast.SelectorExpr:
			return pass.isPooledFieldSel(e)
		case *ast.CallExpr:
			if pass.isArenaAlloc(e) {
				return true
			}
			// append keeps (or regrows from) the first argument's backing
			// array, and non-spread reference elements are retained too; a
			// spread (append(dst, src...)) copies contents. Every other
			// call result counts as an owned copy.
			if id, ok := e.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					if len(e.Args) > 0 && derives(e.Args[0]) {
						return true
					}
					if e.Ellipsis == 0 {
						for _, el := range e.Args[1:] {
							if derives(el) {
								return true
							}
						}
					}
					return false
				}
			}
			return false
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if derives(v) {
					return true
				}
			}
			return false
		}
		return false
	}

	// Propagate taint through local assignments to a fixed point (the
	// file is the unit, so closures capturing pooled buffers are covered).
	for changed := true; changed; {
		changed = false
		ast.Inspect(f, func(n ast.Node) bool {
			a, ok := n.(*ast.AssignStmt)
			if !ok || len(a.Lhs) != len(a.Rhs) {
				return true
			}
			for i, r := range a.Rhs {
				if !derives(r) {
					continue
				}
				id, ok := a.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	const hint = "copy into owned memory first (append([]byte(nil), b...) or an explicit make+copy); pooled buffers are reused after Arena.Reset / request completion"

	reportSink := func(e ast.Expr, sink string) {
		pass.Reportf(e.Pos(), hint,
			"pooled buffer escapes into %s; the backing memory is recycled and will be overwritten", sink)
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, r := range n.Rhs {
				if !derives(r) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					if pass.isPooledFieldSel(lhs) {
						continue // give-back: returning scratch to its request
					}
					if pass.SelectorPkg(lhs) != "" {
						reportSink(r, "package-level variable "+lhs.Sel.Name)
						continue
					}
					if s, ok := info.Selections[lhs]; ok && s.Kind() == types.FieldVal {
						if structOwnsArena(s.Recv()) {
							// An arena-scoped container: a struct that holds
							// the *Arena itself may park arena memory in its
							// own fields — their lifetimes are already tied.
							continue
						}
						reportSink(r, "struct field "+lhs.Sel.Name)
					}
				case *ast.Ident:
					obj := info.Uses[lhs]
					if obj != nil && obj.Parent() == pass.Pkg.Types.Scope() {
						reportSink(r, "package-level variable "+lhs.Name)
					}
				case *ast.IndexExpr:
					if t := info.Types[lhs.X].Type; t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							reportSink(r, "a map")
						}
					}
				}
			}
		case *ast.SendStmt:
			if derives(n.Value) {
				reportSink(n.Value, "a channel")
			}
		}
		return true
	})
}
