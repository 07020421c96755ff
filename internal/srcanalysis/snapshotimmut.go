package srcanalysis

import (
	"go/ast"
	"go/types"
)

// snapshotimmutPass proves that session snapshots are read-only outside
// their owning packages. core.Session.View and ViewCtx return a *view.View
// backed by an xmltree.Document, the materialized view that specifies what
// every filtered read of the session must show, and the write path maps
// view identifiers back through such documents — a caller that edits one
// in place no longer holds the user's view, and any identifier it maps
// back through the edited tree no longer names what the view showed. The banked dense-index slices and cached per-profile merges of
// the RuleCache carry the same contract inside internal/policy, where the
// cowdiscipline and lockguard passes enforce it; this pass closes the
// exported surface.
//
// Every value reachable from a View()/ViewCtx() result is tainted, with
// method propagation: v.Doc, v.Doc.Root(), any node walked from it. Two
// findings:
//
//   - snapshot-write: an assignment (field, index, dereference, ++/--,
//     delete/append/copy) whose target is snapshot-derived;
//   - snapshot-mutator: calling one of xmltree.Document's mutating methods
//     (AppendChild, Remove, Rename, ...) on a snapshot-derived document.
//
// Cloning first (xmltree.Document.Clone) launders the taint: edits to a
// private copy are the sanctioned pattern. The owning packages
// internal/core and internal/view are exempt — deriving the snapshot is
// their job.
//
// Generation roots (S29) carry the same contract with a dynamic twin:
// every document published in a copy-on-write generation is frozen
// (xmltree.Document.Freeze), so its mutators return ErrFrozen at runtime.
// This pass is the compile-time half — it catches snapshot writes before
// they run — while the freeze bit catches whatever provenance tracking
// cannot see (reflection, node handles laundered through interfaces).
// Clone remains the single sanctioned escape on both halves: it always
// returns an unfrozen, unshared copy.
var snapshotimmutPass = &pass{
	name: "snapshotimmut",
	doc:  "in-place mutation of Session.View snapshots outside the owning packages",
	run:  runSnapshotimmut,
}

// documentMutators are the xmltree.Document methods that change the tree.
var documentMutators = map[string]bool{
	"MirrorChild":  true,
	"AppendChild":  true,
	"InsertBefore": true,
	"InsertAfter":  true,
	"SetAttribute": true,
	"Rename":       true,
	"Remove":       true,
	"Graft":        true,
}

func runSnapshotimmut(a *analysis) {
	spec := &taintSpec{
		sources:      snapshotSources(a),
		sourceFields: map[types.Object]bool{},
		methodProp:   true,
	}
	if len(spec.sources) == 0 {
		return
	}
	t := newTainter(a, spec)
	xmltreePath := a.internalPath("xmltree")
	owners := map[string]bool{a.internalPath("core"): true, a.internalPath("view"): true}
	for _, pkg := range a.targets {
		if owners[pkg.Path] {
			continue
		}
		inspectFuncs(pkg, func(fd *ast.FuncDecl) {
			env := t.funcEnv(pkg, fd)
			checkMutations(a, t, env, fd, func(target ast.Expr, key string, pos ast.Node) {
				a.reportf(pkg, pos.Pos(), "snapshot-write", key,
					"%s writes into a Session.View snapshot; snapshots are shared and read-only — Clone/Snapshot a private copy first", key)
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := calleeOf(pkg.Info, call).(*types.Func)
				if !ok || !documentMutators[fn.Name()] || objPkgPath(fn) != xmltreePath {
					return true
				}
				if !t.exprTainted(env, sel.X) {
					return true
				}
				a.reportf(pkg, call.Pos(), "snapshot-mutator", types.ExprString(call.Fun),
					"%s mutates a Session.View snapshot document in place; Clone it before editing", types.ExprString(call.Fun))
				return true
			})
		})
	}
}

// snapshotSources resolves the snapshot-producing methods:
// (*core.Session).View and ViewCtx.
func snapshotSources(a *analysis) map[types.Object]bool {
	sources := make(map[types.Object]bool)
	core := a.prog.Package(a.internalPath("core"))
	if core == nil {
		return sources
	}
	obj, ok := core.Types.Scope().Lookup("Session").(*types.TypeName)
	if !ok {
		return sources
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return sources
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() == "View" || m.Name() == "ViewCtx" {
			sources[m] = true
		}
	}
	return sources
}
