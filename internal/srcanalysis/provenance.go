package srcanalysis

import (
	"go/ast"
	"go/types"
)

// Provenance engine for the cowdiscipline pass: a flow-insensitive
// least-fixpoint taint analysis, the dual of the viewbypass cleanliness
// oracle. Where cleanliness asks "is this value provably locally
// constructed", taint asks "can this value alias shared state" — a source
// function's result, a source field's content, or anything assembled from
// them. Taint propagates through assignments, selectors, indexing,
// composite literals and module-function returns, and is *broken* by
// exactly the operations that create an independent value:
//
//   - a value-typed copy (the refType gate: copying an int, a string or a
//     plain struct of them cannot alias anything);
//   - a sanctioned clone: maps.Clone, slices.Clone, or a method named
//     Clone or Snapshot (the module's deep-copy spelling);
//   - a freshly constructed local (composite literal / new).
//
// Locals start untainted and are promoted when any assignment gives them a
// tainted right-hand side; cross-function queries memoize with a pending
// state that resolves optimistically (a cycle is untainted), which keeps
// the engine noise-free — every report traces to a concrete source.
type taintSpec struct {
	// sources are functions/methods whose results carry shared state.
	sources map[types.Object]bool
	// sourceFields are struct fields whose reads carry shared state.
	sourceFields map[types.Object]bool
}

type tainter struct {
	a     *analysis
	spec  *taintSpec
	fn    map[types.Object]verdict
	vars  map[*ast.FuncDecl]map[types.Object]bool
	fresh map[*ast.FuncDecl]map[types.Object]bool
	depth int
}

// taintEnv is the per-function judging context.
type taintEnv struct {
	pkg     *Pkg
	tainted map[types.Object]bool
	fresh   map[types.Object]bool
}

func newTainter(a *analysis, spec *taintSpec) *tainter {
	return &tainter{
		a:     a,
		spec:  spec,
		fn:    make(map[types.Object]verdict),
		vars:  make(map[*ast.FuncDecl]map[types.Object]bool),
		fresh: make(map[*ast.FuncDecl]map[types.Object]bool),
	}
}

// funcEnv computes (and caches) the tainted-local set of a function body.
// Least fixpoint: every local starts untainted and is promoted when any
// assignment to it has a tainted right-hand side.
func (t *tainter) funcEnv(pkg *Pkg, fd *ast.FuncDecl) *taintEnv {
	if set, ok := t.vars[fd]; ok {
		return &taintEnv{pkg: pkg, tainted: set, fresh: t.fresh[fd]}
	}
	asgs := collectAssignments(pkg, fd)
	set := make(map[types.Object]bool, len(asgs))
	t.vars[fd] = set // publish before judging: self-references see the optimistic set
	t.fresh[fd] = freshLocals(pkg, fd)
	env := &taintEnv{pkg: pkg, tainted: set, fresh: t.fresh[fd]}
	for changed := true; changed; {
		changed = false
		for _, as := range asgs {
			if !set[as.obj] && t.assignTainted(env, as) {
				set[as.obj] = true
				changed = true
			}
		}
	}
	return env
}

func (t *tainter) assignTainted(env *taintEnv, as assignment) bool {
	switch rhs := ast.Unparen(as.rhs).(type) {
	case *ast.TypeAssertExpr:
		return t.exprTainted(env, rhs.X)
	case *ast.CallExpr:
		return t.callTainted(env, rhs)
	default:
		return t.exprTainted(env, as.rhs)
	}
}

// exprTainted reports whether the expression's value can alias a source.
func (t *tainter) exprTainted(env *taintEnv, e ast.Expr) bool {
	if t.depth > maxCleanDepth {
		return false
	}
	t.depth++
	defer func() { t.depth-- }()

	e = ast.Unparen(e)
	if tv, ok := env.pkg.Info.Types[e]; ok && tv.Type != nil && !refType(tv.Type) {
		return false // a value copy cannot alias the shared state
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := env.pkg.Info.Uses[x]
		if obj == nil {
			obj = env.pkg.Info.Defs[x]
		}
		return env.tainted[obj]
	case *ast.SelectorExpr:
		sel := env.pkg.Info.Selections[x]
		if sel == nil {
			return false // qualified identifier
		}
		if sel.Kind() == types.FieldVal && t.spec.sourceFields[sel.Obj()] {
			// Reading a source field taints — unless the owner is a fresh
			// local still being constructed.
			return !env.fresh[rootIdentObj(env.pkg, x.X)]
		}
		return t.exprTainted(env, x.X)
	case *ast.IndexExpr:
		return t.exprTainted(env, x.X)
	case *ast.SliceExpr:
		return t.exprTainted(env, x.X)
	case *ast.StarExpr:
		return t.exprTainted(env, x.X)
	case *ast.UnaryExpr:
		return t.exprTainted(env, x.X)
	case *ast.TypeAssertExpr:
		return t.exprTainted(env, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.exprTainted(env, el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.callTainted(env, x)
	}
	return false
}

// callTainted judges the value(s) produced by a call expression.
func (t *tainter) callTainted(env *taintEnv, call *ast.CallExpr) bool {
	callee := calleeOf(env.pkg.Info, call)
	switch obj := callee.(type) {
	case *types.TypeName:
		return len(call.Args) == 1 && t.exprTainted(env, call.Args[0])
	case *types.Builtin:
		if obj.Name() == "append" {
			for _, arg := range call.Args {
				if t.exprTainted(env, arg) {
					return true
				}
			}
		}
		return false
	case *types.Func:
		if t.spec.sources[obj] {
			return true
		}
		if isCloneCall(obj) {
			return false
		}
		if sig, _ := obj.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			return false
		}
		if t.inModule(objPkgPath(obj)) {
			return t.fnTainted(obj)
		}
		return false
	}
	return false
}

// isCloneCall recognizes the sanctioned copy operations: maps.Clone,
// slices.Clone, and any method named Clone or Snapshot (the module's
// deep-copy convention, e.g. xmltree.Document.Clone).
func isCloneCall(fn *types.Func) bool {
	switch objPkgPath(fn) {
	case "maps", "slices":
		return fn.Name() == "Clone"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fn.Name() == "Clone" || fn.Name() == "Snapshot"
	}
	return false
}

func (t *tainter) inModule(path string) bool {
	mod := t.a.prog.ModulePath
	return path == mod || len(path) > len(mod) && path[:len(mod)+1] == mod+"/"
}

// fnTainted reports whether any return statement of the module function
// returns a tainted value. Cycles resolve untainted, so only returns with
// a concrete source path are flagged.
func (t *tainter) fnTainted(obj types.Object) bool {
	switch t.fn[obj] {
	case cleanV: // here: "not tainted"
		return false
	case dirtyV:
		return true
	case pending:
		return false
	}
	t.fn[obj] = pending
	site := t.a.prog.declOf(obj)
	res := false
	if site != nil && site.decl.Body != nil {
		env := t.funcEnv(site.pkg, site.decl)
		forReturns(site.decl.Body, func(ret *ast.ReturnStmt) {
			if res {
				return
			}
			for _, r := range ret.Results {
				if t.exprTainted(env, r) {
					res = true
				}
			}
		})
	}
	if res {
		t.fn[obj] = dirtyV
	} else {
		t.fn[obj] = cleanV
	}
	return res
}
