package srcanalysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// viewbypassPass proves that only the trusted enforcement core touches raw
// xmltree nodes. The paper's guarantees hold only if every read goes
// through the axiom 15–17 view and every write through the axiom 18–25
// checks; a single untrusted call to the unsecured executors or a method
// call on a document of unknown provenance reopens both holes.
//
// Three rules, in decreasing strictness:
//
//   - xmltree-import: the user-facing internal packages (shell, server)
//     may not import internal/xmltree at all — they are fully mediated by
//     the core session API.
//   - unsecured-write: no untrusted package may call xupdate.Execute,
//     xupdate.ExecuteAll or baseline.Execute (the axiom 2–9 executors that
//     skip the view), nor access.ExecuteFilteredCtx, which selects and
//     authorizes under whatever permissions its caller hands it.
//   - raw-node-access: in untrusted packages, methods and fields of
//     xmltree values may only be used on *locally constructed* documents
//     (built by xmltree constructors or returned by trusted packages,
//     tracked through local assignments, same-package helpers and
//     parameters whose every call site passes a clean value). A document
//     of unknown provenance may be someone else's source document.
var viewbypassPass = &pass{
	name: "viewbypass",
	doc:  "raw xmltree access and unsecured executors outside the trusted core",
	run:  runViewbypass,
}

func runViewbypass(a *analysis) {
	c := newCleanliness(a)
	xmltreePath := a.internalPath("xmltree")
	for _, pkg := range a.targets {
		if a.trustedPkg(pkg.Path) {
			continue
		}
		if a.strictMediated(pkg.Path) {
			for _, file := range pkg.Files {
				for _, imp := range file.Imports {
					if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == xmltreePath {
						a.reportf(pkg, imp.Pos(), "xmltree-import", "xmltree",
							"%s must stay fully mediated by the core session API and may not import internal/xmltree", pkg.Path)
					}
				}
			}
		}
		inspectFuncs(pkg, func(fd *ast.FuncDecl) {
			env := c.funcEnv(pkg, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					if key, ok := a.unsecuredWriter(calleeOf(pkg.Info, e)); ok {
						a.reportf(pkg, e.Pos(), "unsecured-write", key,
							"%s applies writes without the axiom 18–25 view-evaluated checks; go through core.Session", key)
					}
				case *ast.SelectorExpr:
					sel := pkg.Info.Selections[e]
					if sel == nil || !typeFromPkg(sel.Recv(), xmltreePath) {
						return true
					}
					if c.exprClean(env, e.X) || c.chainDirty(env, e.X) {
						return true
					}
					a.reportf(pkg, e.Pos(), "raw-node-access", types.ExprString(e),
						"%s reads or mutates an xmltree value of unknown provenance; only locally constructed documents or the core session API are allowed here",
						types.ExprString(e))
				}
				return true
			})
		})
	}
}

// strictMediated reports whether the package is user-facing internal code
// with a no-xmltree-import rule.
func (a *analysis) strictMediated(path string) bool {
	return path == a.internalPath("shell") || path == a.internalPath("server")
}

// unsecuredWriter reports whether obj is one of the executors that skip
// the view (axioms 2–9), and returns its stable finding key.
func (a *analysis) unsecuredWriter(obj types.Object) (string, bool) {
	switch objPkgPath(obj) {
	case a.internalPath("xupdate"):
		if obj.Name() == "Execute" || obj.Name() == "ExecuteAll" {
			return "xupdate." + obj.Name(), true
		}
	case a.internalPath("baseline"):
		if obj.Name() == "Execute" {
			return "baseline.Execute", true
		}
	case a.internalPath("access"):
		if obj.Name() == "ExecuteFilteredCtx" {
			return "access.ExecuteFilteredCtx", true
		}
	}
	return "", false
}

// --- cleanliness oracle --------------------------------------------------------

// cleanliness decides whether an expression holding module data is
// "locally constructed": produced by a trusted package, by an xmltree
// constructor, or assembled in this package purely from such values. The
// analysis is flow-insensitive (a variable is clean only if every
// assignment to it is clean) and crosses function boundaries two ways:
// same-module functions are clean if every node-carrying result of every
// return statement is clean, and parameters are clean if every call site
// in the loaded program passes a clean argument.
type cleanliness struct {
	a *analysis
	// fn and param memoize the cross-function queries; the bool is the
	// verdict, presence marks "in progress" cycles as dirty.
	fn    map[types.Object]verdict
	param map[types.Object]verdict
	vars  map[*ast.FuncDecl]map[types.Object]bool
	depth int
}

type verdict int8

const (
	pending verdict = iota + 1
	cleanV
	dirtyV
)

// funcEnv is the per-function context expressions are judged in.
type funcEnv struct {
	pkg   *Pkg
	clean map[types.Object]bool
}

const maxCleanDepth = 16

func newCleanliness(a *analysis) *cleanliness {
	return &cleanliness{
		a:     a,
		fn:    make(map[types.Object]verdict),
		param: make(map[types.Object]verdict),
		vars:  make(map[*ast.FuncDecl]map[types.Object]bool),
	}
}

// carriesNodes reports whether the type can transport module data
// (anything whose named base is declared in this module). Basic types,
// stdlib types and untyped nils cannot smuggle nodes, so expressions of
// those types are vacuously clean.
func (c *cleanliness) carriesNodes(t types.Type) bool {
	if t == nil {
		return false
	}
	n := namedBase(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == c.a.prog.ModulePath || len(path) > len(c.a.prog.ModulePath) &&
		path[:len(c.a.prog.ModulePath)+1] == c.a.prog.ModulePath+"/"
}

// funcEnv computes (and caches) the clean variable set of a function body.
// Greatest fixpoint: every tracked variable starts clean and is demoted
// when any assignment to it has a dirty right-hand side.
func (c *cleanliness) funcEnv(pkg *Pkg, fd *ast.FuncDecl) *funcEnv {
	if set, ok := c.vars[fd]; ok {
		return &funcEnv{pkg: pkg, clean: set}
	}
	asgs := collectAssignments(pkg, fd)
	set := make(map[types.Object]bool, len(asgs))
	for _, as := range asgs {
		set[as.obj] = true
	}
	c.vars[fd] = set // publish before judging: self-references see the optimistic set
	env := &funcEnv{pkg: pkg, clean: set}
	for changed := true; changed; {
		changed = false
		for _, as := range asgs {
			if set[as.obj] && !c.assignClean(env, as) {
				set[as.obj] = false
				changed = true
			}
		}
	}
	return env
}

// assignment is one definition of a tracked local variable.
type assignment struct {
	obj types.Object
	// rhs is the defining expression; for multi-value forms it is the
	// single call/range/assert expression all left-hand sides share.
	rhs ast.Expr
}

// collectAssignments gathers every assignment to node-carrying local
// variables in the body (closures included — their locals are judged in
// the same environment).
func collectAssignments(pkg *Pkg, fd *ast.FuncDecl) []assignment {
	var out []assignment
	track := func(id ast.Expr, rhs ast.Expr) {
		ident, ok := id.(*ast.Ident)
		if !ok || ident.Name == "_" {
			return
		}
		obj := pkg.Info.Defs[ident]
		if obj == nil {
			obj = pkg.Info.Uses[ident]
		}
		if v, ok := obj.(*types.Var); ok && rhs != nil {
			out = append(out, assignment{obj: v, rhs: rhs})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				for _, lhs := range s.Lhs {
					track(lhs, s.Rhs[0])
				}
				return true
			}
			for i, lhs := range s.Lhs {
				if i < len(s.Rhs) {
					track(lhs, s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Values) == 1 && len(s.Names) > 1 {
				for _, name := range s.Names {
					track(name, s.Values[0])
				}
				return true
			}
			for i, name := range s.Names {
				if i < len(s.Values) {
					track(name, s.Values[i])
				}
			}
		case *ast.RangeStmt:
			track(s.Key, s.X)
			track(s.Value, s.X)
		}
		return true
	})
	return out
}

// assignClean judges one assignment's right-hand side for the assigned
// variable.
func (c *cleanliness) assignClean(env *funcEnv, as assignment) bool {
	switch rhs := ast.Unparen(as.rhs).(type) {
	case *ast.TypeAssertExpr:
		return c.exprClean(env, rhs.X)
	case *ast.CallExpr:
		return c.callClean(env, rhs)
	default:
		return c.exprClean(env, as.rhs)
	}
}

// exprClean reports whether the expression's value is locally
// constructed.
func (c *cleanliness) exprClean(env *funcEnv, e ast.Expr) bool {
	if c.depth > maxCleanDepth {
		return false
	}
	c.depth++
	defer func() { c.depth-- }()

	e = ast.Unparen(e)
	tv, ok := env.pkg.Info.Types[e]
	if ok && !c.carriesNodes(tv.Type) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := env.pkg.Info.Uses[x]
		if obj == nil {
			obj = env.pkg.Info.Defs[x]
		}
		switch obj.(type) {
		case *types.Const, *types.Nil:
			return true
		case *types.Var:
			if env.clean[obj] {
				return true
			}
			return c.paramClean(obj)
		}
		return false
	case *ast.SelectorExpr:
		if sel := env.pkg.Info.Selections[x]; sel != nil {
			return c.exprClean(env, x.X)
		}
		// Qualified identifier: package-level values of trusted packages
		// are clean by definition.
		obj := env.pkg.Info.Uses[x.Sel]
		return obj != nil && c.a.trustedPkg(objPkgPath(obj))
	case *ast.CallExpr:
		return c.callClean(env, x)
	case *ast.UnaryExpr:
		return c.exprClean(env, x.X)
	case *ast.StarExpr:
		return c.exprClean(env, x.X)
	case *ast.IndexExpr:
		return c.exprClean(env, x.X)
	case *ast.SliceExpr:
		return c.exprClean(env, x.X)
	case *ast.TypeAssertExpr:
		return c.exprClean(env, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if !c.exprClean(env, el) {
				return false
			}
		}
		return true
	}
	return false
}

// callClean judges the value(s) produced by a call expression.
func (c *cleanliness) callClean(env *funcEnv, call *ast.CallExpr) bool {
	callee := calleeOf(env.pkg.Info, call)
	if callee == nil {
		return false
	}
	switch obj := callee.(type) {
	case *types.TypeName:
		// Conversion: as clean as its operand.
		return len(call.Args) == 1 && c.exprClean(env, call.Args[0])
	case *types.Builtin:
		switch obj.Name() {
		case "new", "make":
			return true
		case "append":
			for _, arg := range call.Args {
				if !c.exprClean(env, arg) {
					return false
				}
			}
			return true
		}
		return false
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Method call: the result is as trustworthy as its receiver.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && env.pkg.Info.Selections[sel] != nil {
				return c.exprClean(env, sel.X)
			}
			return false
		}
		path := objPkgPath(obj)
		if c.a.trustedPkg(path) {
			return true
		}
		if path == "" || !c.inModule(path) {
			// Non-module functions cannot produce module node types; if the
			// static type says otherwise (interfaces), stay conservative.
			return !c.resultCarriesNodes(obj)
		}
		return c.fnClean(obj)
	}
	return false
}

func (c *cleanliness) inModule(path string) bool {
	mod := c.a.prog.ModulePath
	return path == mod || len(path) > len(mod) && path[:len(mod)+1] == mod+"/"
}

func (c *cleanliness) resultCarriesNodes(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if c.carriesNodes(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// fnClean reports whether every node-carrying result of every return
// statement of the function is clean.
func (c *cleanliness) fnClean(obj types.Object) bool {
	switch c.fn[obj] {
	case cleanV:
		return true
	case dirtyV, pending:
		return false
	}
	c.fn[obj] = pending
	site := c.a.prog.declOf(obj)
	res := false
	if site != nil && site.decl.Body != nil {
		res = c.returnsClean(site)
	}
	if res {
		c.fn[obj] = cleanV
	} else {
		c.fn[obj] = dirtyV
	}
	return res
}

func (c *cleanliness) returnsClean(site *declSite) bool {
	sig, ok := site.pkg.Info.Defs[site.decl.Name].Type().(*types.Signature)
	if !ok {
		return false
	}
	env := c.funcEnv(site.pkg, site.decl)
	clean := true
	forReturns(site.decl.Body, func(ret *ast.ReturnStmt) {
		if !clean {
			return
		}
		if len(ret.Results) == 0 {
			// Naked return: named results are judged like locals.
			for i := 0; i < sig.Results().Len(); i++ {
				rv := sig.Results().At(i)
				if c.carriesNodes(rv.Type()) && !env.clean[rv] {
					clean = false
				}
			}
			return
		}
		if len(ret.Results) == 1 && sig.Results().Len() > 1 {
			// return f() forwarding: clean iff the inner call is.
			if !c.exprClean(env, ret.Results[0]) {
				clean = false
			}
			return
		}
		for i, r := range ret.Results {
			if i < sig.Results().Len() && c.carriesNodes(sig.Results().At(i).Type()) && !c.exprClean(env, r) {
				clean = false
			}
		}
	})
	return clean
}

// forReturns visits the return statements belonging to the body itself,
// not to nested function literals.
func forReturns(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(s)
		}
		return true
	})
}

// paramClean reports whether every call site in the loaded program passes
// a clean value for this parameter (or receiver).
func (c *cleanliness) paramClean(obj types.Object) bool {
	switch c.param[obj] {
	case cleanV:
		return true
	case dirtyV, pending:
		return false
	}
	ps := c.a.prog.paramOf(obj)
	if ps == nil {
		rs := c.a.prog.recvOf(obj)
		if rs == nil {
			return false
		}
		ps = rs
	}
	c.param[obj] = pending
	sites := c.a.prog.callsOf(ps.fn)
	res := len(sites) > 0
	for _, site := range sites {
		if !c.argClean(site, ps.index) {
			res = false
			break
		}
	}
	if res {
		c.param[obj] = cleanV
	} else {
		c.param[obj] = dirtyV
	}
	return res
}

// argClean judges the argument (index >= 0) or receiver (index == -1) of
// one call site, in the caller's environment.
func (c *cleanliness) argClean(site *callSite, index int) bool {
	fd := enclosingDecl(site.pkg, site.call.Pos())
	var env *funcEnv
	if fd != nil {
		env = c.funcEnv(site.pkg, fd)
	} else {
		env = &funcEnv{pkg: site.pkg, clean: map[types.Object]bool{}}
	}
	if index == -1 {
		sel, ok := ast.Unparen(site.call.Fun).(*ast.SelectorExpr)
		if !ok || site.pkg.Info.Selections[sel] == nil {
			return false
		}
		return c.exprClean(env, sel.X)
	}
	if index >= len(site.call.Args) {
		return false
	}
	return c.exprClean(env, site.call.Args[index])
}

// chainDirty reports whether the expression's own base is an unclean
// xmltree value — in which case the inner link of the chain is (or will
// be) flagged and flagging this one too would be noise.
func (c *cleanliness) chainDirty(env *funcEnv, e ast.Expr) bool {
	xmltreePath := c.a.internalPath("xmltree")
	inner := func(x ast.Expr) bool {
		tv, ok := env.pkg.Info.Types[x]
		if ok && typeFromPkg(tv.Type, xmltreePath) && !c.exprClean(env, x) {
			return true
		}
		return c.chainDirty(env, x)
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && env.pkg.Info.Selections[sel] != nil {
			return inner(sel.X)
		}
	case *ast.SelectorExpr:
		if env.pkg.Info.Selections[x] != nil {
			return inner(x.X)
		}
	case *ast.IndexExpr:
		return inner(x.X)
	case *ast.StarExpr:
		return inner(x.X)
	case *ast.UnaryExpr:
		return inner(x.X)
	}
	return false
}

// enclosingDecl finds the function declaration containing pos.
func enclosingDecl(pkg *Pkg, pos token.Pos) *ast.FuncDecl {
	for _, file := range pkg.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pos >= fd.Pos() && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
