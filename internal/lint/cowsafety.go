package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CowSafety enforces the copy-on-write discipline around
// atomic.Pointer: a map, slice, or struct reached from a Load() is a
// published snapshot shared with lock-free readers, so mutating it in
// place is a data race even when the mutation itself happens under the
// writer's lock (readers hold no lock). The only legal write path is
// clone → mutate the clone → Store. This is the invariant the published
// surveys (internal/crawler's engine view, the verdict cache's current
// survey) and internal/topology's registry view are built on.
//
// The analyzer taints every value derived from an
// (*atomic.Pointer[T]).Load() call — through assignments, dereferences,
// field and index selections, and range statements — and reports:
//
//   - index assignment or delete() on a tainted map or slice
//   - field or pointer-dereference assignment through a tainted value
//   - append() whose destination is tainted (may write the shared
//     backing array in place)
//   - storing a tainted map or slice into a field, element, or
//     package-level variable (a mutable alias that outlives the
//     function, hiding later mutation from this analysis)
//
// Passing a tainted value through any other function call (maps.Clone,
// slices.Clone, len, a constructor) launders the taint: clones are the
// sanctioned way to mutate.
var CowSafety = &Analyzer{
	Name: "cowsafety",
	Doc:  "mutation of a map/slice/struct reached from atomic.Pointer.Load (copy-on-write: clone, mutate the clone, Store the clone)",
	Run:  runCowSafety,
}

func runCowSafety(pass *Pass) error {
	for _, file := range pass.Files {
		c := &cowChecker{pass: pass, tainted: make(map[types.Object]bool)}
		c.propagate(file)
		c.report(file)
	}
	return nil
}

type cowChecker struct {
	pass    *Pass
	tainted map[types.Object]bool
}

// isAtomicPointerLoad reports whether e is a call to Load on a
// sync/atomic.Pointer[T] (directly or via an addressable field).
func (c *cowChecker) isAtomicPointerLoad(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	t := c.pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// rooted reports whether e reaches a Load() result without passing
// through another function call: the expression itself is a Load, or it
// dereferences/selects/indexes/slices a tainted identifier.
func (c *cowChecker) rooted(e ast.Expr) bool {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.CallExpr:
			return c.isAtomicPointerLoad(x)
		case *ast.Ident:
			obj := c.pass.objectOf(x)
			return obj != nil && c.tainted[obj]
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return false
		}
	}
}

// propagate computes the tainted identifier set to a fixpoint over the
// file's assignments, declarations, and range statements.
func (c *cowChecker) propagate(file *ast.File) {
	taintIdent := func(e ast.Expr, changed *bool) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.objectOf(id)
		if obj != nil && !c.tainted[obj] {
			c.tainted[obj] = true
			*changed = true
		}
	}
	for {
		changed := false
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					if c.rooted(rhs) {
						taintIdent(st.Lhs[i], &changed)
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i, rhs := range st.Values {
					if c.rooted(rhs) {
						taintIdent(st.Names[i], &changed)
					}
				}
			case *ast.RangeStmt:
				// Keys are fresh copies of comparable values; the
				// aliasing risk is the element (a pointer or nested
				// map/slice into the published structure).
				if st.Value != nil && c.rooted(st.X) {
					taintIdent(st.Value, &changed)
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// mutable reports whether t's underlying type is a map or slice — the
// types whose element writes alias the published snapshot.
func mutable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

func (c *cowChecker) exprType(e ast.Expr) types.Type {
	return c.pass.TypesInfo.Types[e].Type
}

// report walks the file flagging in-place mutations of tainted values.
func (c *cowChecker) report(file *ast.File) {
	pass := c.pass
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					if c.rooted(l.X) && mutable(c.exprType(l.X)) {
						pass.Reportf(l.Pos(), "writes element of a %s reached from atomic.Pointer.Load; clone it (maps.Clone/slices.Clone), mutate the clone, then Store", kindOf(c.exprType(l.X)))
					}
				case *ast.SelectorExpr:
					if c.rooted(l.X) {
						pass.Reportf(l.Pos(), "writes field %s of a value reached from atomic.Pointer.Load; published snapshots are read-only — build a new value and Store it", l.Sel.Name)
					}
				case *ast.StarExpr:
					if c.rooted(l.X) {
						pass.Reportf(l.Pos(), "writes through a pointer reached from atomic.Pointer.Load; published snapshots are read-only — build a new value and Store it")
					}
				}
			}
			// Aliasing escape: a tainted map/slice stored somewhere that
			// outlives the local frame.
			if len(st.Lhs) == len(st.Rhs) {
				for i, rhs := range st.Rhs {
					if !c.rooted(rhs) || !mutable(c.exprType(rhs)) {
						continue
					}
					switch l := ast.Unparen(st.Lhs[i]).(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						pass.Reportf(st.Lhs[i].Pos(), "stores a %s reached from atomic.Pointer.Load into a longer-lived structure; the alias hides later in-place mutation — store a clone", kindOf(c.exprType(rhs)))
					case *ast.Ident:
						if obj := c.pass.objectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
							pass.Reportf(st.Lhs[i].Pos(), "stores a %s reached from atomic.Pointer.Load into package-level variable %s; the alias hides later in-place mutation — store a clone", kindOf(c.exprType(rhs)), l.Name)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			switch l := ast.Unparen(st.X).(type) {
			case *ast.IndexExpr:
				if c.rooted(l.X) && mutable(c.exprType(l.X)) {
					pass.Reportf(st.Pos(), "increments element of a %s reached from atomic.Pointer.Load; clone before mutating", kindOf(c.exprType(l.X)))
				}
			case *ast.SelectorExpr:
				if c.rooted(l.X) {
					pass.Reportf(st.Pos(), "increments field %s of a value reached from atomic.Pointer.Load; published snapshots are read-only", l.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && len(st.Args) > 0 {
				if b, ok := c.pass.objectOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "delete":
						if c.rooted(st.Args[0]) {
							pass.Reportf(st.Pos(), "delete() on a map reached from atomic.Pointer.Load; clone it, delete from the clone, then Store")
						}
					case "append":
						if c.rooted(st.Args[0]) {
							pass.Reportf(st.Pos(), "append() to a slice reached from atomic.Pointer.Load may write its shared backing array; append to a clone (or to a nil slice) instead")
						}
					case "clear":
						if c.rooted(st.Args[0]) {
							pass.Reportf(st.Pos(), "clear() on a value reached from atomic.Pointer.Load; clone it instead")
						}
					}
				}
			}
		}
		return true
	})
}

func kindOf(t types.Type) string {
	if t == nil {
		return "value"
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return "value"
}
