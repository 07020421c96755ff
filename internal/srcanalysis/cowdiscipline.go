package srcanalysis

import (
	"go/ast"
	"go/types"
)

// cowdisciplinePass proves the copy-on-write contract of the shared-scan
// cache tier. RuleCache interns per-rule node sets and per-profile grant
// masks and hands them to every session that shares the cache version;
// the functions that return them say "callers must clone" in their doc
// comments, and Perms writes only its private overlay (Rescore)
// and folds it into a fresh copy of its shared base (flatten). One
// forgotten clone silently leaks a privilege edit
// from one user's Perms into every other session's — the exact axiom-14
// violation the tier was built to avoid.
//
// The pass taints every value reachable from a "callers must clone"
// function result or struct field (see the provenance engine) and flags
// any mutation of a tainted value as shared-mutation: index, field or
// dereference assignment, ++/--, delete, in-place append and copy, and
// the in-place sorts of sort and slices. A mutation is licensed when:
//
//   - the value was cloned first (maps.Clone, slices.Clone, a Clone or
//     Snapshot method) — cloning launders the taint at the source;
//   - the value is rooted in a freshly constructed local (a Perms being
//     assembled by Evaluate is not yet shared);
//   - the function first calls a *cleansing method* on the same root — a
//     method that replaces the shared field with a clone, or that
//     transitively calls one. That is the clone-on-first-write
//     discipline, recognized structurally rather than by name.
var cowdisciplinePass = &pass{
	name: "cowdiscipline",
	doc:  "mutations of shared cache values (\"callers must clone\") not dominated by a clone",
	run:  runCowdiscipline,
}

func runCowdiscipline(a *analysis) {
	spec := &taintSpec{
		sources:      make(map[types.Object]bool),
		sourceFields: make(map[types.Object]bool),
	}
	for _, pkg := range a.targets {
		collectCloneContracts(pkg, spec)
	}
	if len(spec.sources) == 0 && len(spec.sourceFields) == 0 {
		return
	}
	t := newTainter(a, spec)
	cleansing := cleansingMethods(a, spec)
	for _, pkg := range a.targets {
		inspectFuncs(pkg, func(fd *ast.FuncDecl) {
			env := t.funcEnv(pkg, fd)
			cleansed := cleansedRoots(pkg, fd, cleansing)
			checkMutations(a, t, env, fd, func(target ast.Expr, key string, pos ast.Node) {
				if cleansed[rootIdentObj(pkg, target)] {
					return
				}
				a.reportf(pkg, pos.Pos(), "shared-mutation", key,
					"%s mutates a shared cache value that callers must clone first (maps.Clone/slices.Clone or the clone-on-first-write helpers)", key)
			})
		})
	}
}

// collectCloneContracts gathers the "callers must clone" sources: annotated
// functions (their results are shared) and annotated struct fields (their
// contents are shared).
func collectCloneContracts(pkg *Pkg, spec *taintSpec) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if mustClone(commentText(d.Doc)) {
					if obj := pkg.Info.Defs[d.Name]; obj != nil {
						spec.sources[obj] = true
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !mustClone(commentText(field.Doc, field.Comment)) {
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								spec.sourceFields[obj] = true
							}
						}
					}
				}
			}
		}
	}
}

// cleansingMethods computes, by fixpoint, the methods that implement
// clone-on-first-write: they assign a shared field of their receiver from
// a clone-derived value (directly or via a local), or call another
// cleansing method on their receiver.
func cleansingMethods(a *analysis, spec *taintSpec) map[types.Object]bool {
	cleansing := make(map[types.Object]bool)
	for changed := true; changed; {
		changed = false
		for _, pkg := range a.targets {
			inspectFuncs(pkg, func(fd *ast.FuncDecl) {
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil || cleansing[obj] || fd.Recv == nil {
					return
				}
				if methodCleanses(pkg, fd, spec, cleansing) {
					cleansing[obj] = true
					changed = true
				}
			})
		}
	}
	return cleansing
}

func methodCleanses(pkg *Pkg, fd *ast.FuncDecl, spec *taintSpec, cleansing map[types.Object]bool) bool {
	recv := recvObj(pkg, fd)
	if recv == nil {
		return false
	}
	asgs := collectAssignments(pkg, fd)
	cloneLocal := func(obj types.Object) bool {
		for _, as := range asgs {
			if as.obj == obj && cloneExpr(pkg, as.rhs) {
				return true
			}
		}
		return false
	}
	res := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if res {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				selection := pkg.Info.Selections[sel]
				if selection == nil || selection.Kind() != types.FieldVal ||
					!spec.sourceFields[selection.Obj()] || rootIdentObj(pkg, sel.X) != recv {
					continue
				}
				rhs := ast.Unparen(s.Rhs[i])
				if cloneExpr(pkg, rhs) {
					res = true
					return false
				}
				if id, ok := rhs.(*ast.Ident); ok && cloneLocal(pkg.Info.Uses[id]) {
					res = true
					return false
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pkg.Info, s)
			if callee != nil && cleansing[callee] && rootIdentObj(pkg, sel.X) == recv {
				res = true
				return false
			}
		}
		return true
	})
	return res
}

// cloneExpr reports whether the expression is a direct sanctioned clone
// call.
func cloneExpr(pkg *Pkg, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeOf(pkg.Info, call).(*types.Func)
	return ok && isCloneCall(fn)
}

func recvObj(pkg *Pkg, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// cleansedRoots collects the local roots the function calls a cleansing
// method on: after p.mutable(), mutations through p are licensed.
func cleansedRoots(pkg *Pkg, fd *ast.FuncDecl, cleansing map[types.Object]bool) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(pkg.Info, call); callee != nil && cleansing[callee] {
			if root := rootIdentObj(pkg, sel.X); root != nil {
				roots[root] = true
			}
		}
		return true
	})
	return roots
}

// checkMutations walks the function body and invokes report for every
// mutation of a tainted value. The callback receives the mutated target
// (for root licensing) and the stable finding key.
func checkMutations(a *analysis, t *tainter, env *taintEnv, fd *ast.FuncDecl, report func(target ast.Expr, key string, pos ast.Node)) {
	mutate := func(target ast.Expr, key string, pos ast.Node) {
		if t.exprTainted(env, target) {
			report(target, key, pos)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkAssignTarget(env, lhs, mutate)
			}
		case *ast.IncDecStmt:
			checkAssignTarget(env, s.X, mutate)
		case *ast.CallExpr:
			checkCallMutation(env, s, mutate)
		}
		return true
	})
}

// checkAssignTarget maps an assignment left-hand side to the value it
// mutates: m[k] = v and *p = v mutate the container/pointee; x.f = v
// mutates the object x refers to.
func checkAssignTarget(env *taintEnv, lhs ast.Expr, mutate func(target ast.Expr, key string, pos ast.Node)) {
	key := types.ExprString(lhs)
	switch x := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		mutate(x.X, key, lhs)
	case *ast.StarExpr:
		mutate(x.X, key, lhs)
	case *ast.SelectorExpr:
		if sel := env.pkg.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			mutate(x.X, key, lhs)
		}
	}
}

// checkCallMutation flags the mutating builtins and the in-place sorts.
func checkCallMutation(env *taintEnv, call *ast.CallExpr, mutate func(target ast.Expr, key string, pos ast.Node)) {
	if len(call.Args) == 0 {
		return
	}
	key := types.ExprString(call)
	switch fn := calleeOf(env.pkg.Info, call).(type) {
	case *types.Builtin:
		switch fn.Name() {
		case "delete", "copy":
			mutate(call.Args[0], key, call)
		case "append":
			// Plain append may grow in place, overwriting the shared
			// backing array's spare capacity.
			if len(call.Args) > 1 {
				mutate(call.Args[0], key, call)
			}
		}
	case *types.Func:
		name := fn.Name()
		switch objPkgPath(fn) {
		case "sort":
			switch name {
			case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
				mutate(call.Args[0], key, call)
			}
		case "slices":
			switch name {
			case "Sort", "SortFunc", "SortStableFunc", "Reverse":
				mutate(call.Args[0], key, call)
			}
		}
	}
}
