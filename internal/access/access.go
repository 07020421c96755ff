// Package access implements the write access controls of §4.4.2 (axioms
// 18–25): XUpdate operations whose target nodes are selected on the user's
// *view* rather than on the source database, killing the SQL-style covert
// channel of §2.2.
//
// Per-operation privilege requirements (§4.4.2), with n the selected node:
//
//	xupdate:rename        update on n, and read on n (a node shown with the
//	                      RESTRICTED label cannot be renamed, because that
//	                      would overwrite a label the user may not see)
//	xupdate:update        update AND read on each child of n in the view
//	                      (axioms 20–21)
//	xupdate:append        insert on n (axiom 22)
//	xupdate:insert-before insert on the parent of n (axiom 23)
//	xupdate:insert-after  insert on the parent of n (axiom 24)
//	xupdate:remove        delete on n (axiom 25); invisible descendants are
//	                      deleted silently — the paper prefers
//	                      confidentiality over integrity
//
// Operations may succeed on some selected nodes and fail on others; the
// Result records both.
//
// Where the view comes from. Execute/ExecuteWithVars(Ctx) derive it from
// the document they are given: a non-shared policy evaluation (axiom 14)
// and a full materialization (axioms 15–17), then the execute step.
// ExecuteOnViewCtx is that execute step alone, over a view and
// permissions the caller already holds. internal/core uses it to select
// on the writing session's cached, incrementally maintained view of the
// committed generation the round's scratch document was cloned from, and
// falls back to the deriving entry point whenever an earlier request in
// the same commit round changed the document, the policy or the subject
// hierarchy (the cached view would then describe a different state).
package access

import (
	"context"
	"errors"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

// ErrUnknownUser is returned when the session user is not in the hierarchy.
var ErrUnknownUser = errors.New("access: unknown user")

// Telemetry: the secured write pipeline records the view-select and the
// axiom 18–25 application loop as stages, plus per-kind op outcomes and
// per-node applied/skipped counts.
var (
	selectStage  = obs.Stage("xpath_eval")
	applyStage   = obs.Stage("xupdate_apply")
	nodesApplied = obs.Default().Counter("xmlsec_xupdate_nodes_total", "result", "applied")
	nodesSkipped = obs.Default().Counter("xmlsec_xupdate_nodes_total", "result", "skipped")
)

// opOutcome counts one secured operation by kind and outcome
// (applied | skipped | noop | error). The label drops the wire prefix:
// kind="update", not kind="xupdate:update".
func opOutcome(k xupdate.Kind, outcome string) {
	obs.Default().Counter("xmlsec_xupdate_ops_total",
		"kind", k.MetricLabel(), "outcome", outcome).Inc()
}

// Execute applies op on behalf of user: permissions are evaluated (axiom
// 14), the user's view is materialized (axioms 15–17), the op's select path
// runs on the view with $USER bound, and each selected node is updated in
// the source document if and only if the §4.4.2 privilege requirements
// hold. It returns the operation result and the view that was used.
func Execute(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op) (*xupdate.Result, *view.View, error) {
	return ExecuteWithVars(doc, h, pol, user, op, nil)
}

// ExecuteWithVars is Execute with additional XPath variable bindings (e.g.
// xupdate:variable bindings threaded through a modification sequence).
// $USER always binds to the session user. Dynamic content (value-of
// placeholders) is expanded against the user's *view*, so inserted copies
// can never carry data the user may not read.
func ExecuteWithVars(doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, *view.View, error) {
	return ExecuteWithVarsCtx(context.Background(), doc, h, pol, user, op, extra)
}

// ExecuteWithVarsCtx is ExecuteWithVars with request-scoped tracing: under
// an active trace the policy evaluation, view materialization, view-select
// and axiom 18–25 application loop all appear as child spans, the latter
// annotated with the op kind and per-node accounting. It derives the view
// from doc (axioms 14–17) and then runs the same execute step as
// ExecuteOnViewCtx.
func ExecuteWithVarsCtx(ctx context.Context, doc *xmltree.Document, h *subject.Hierarchy, pol *policy.Policy, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, *view.View, error) {
	if !h.Exists(user) {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	if err := checkOp(op); err != nil {
		return nil, nil, err
	}
	pm, err := pol.EvaluateCtx(ctx, doc, h, user)
	if err != nil {
		return nil, nil, err
	}
	v := view.MaterializeCtx(ctx, doc, pm)
	res, err := execute(ctx, doc, v, pm, user, op, extra)
	if err != nil {
		return nil, nil, err
	}
	return res, v, nil
}

// ExecuteOnViewCtx is the execute step of ExecuteWithVarsCtx on its own:
// op's select path runs on v with $USER bound, and each selected node is
// changed in doc if and only if pm grants the §4.4.2 privileges. The
// caller vouches that v and pm are user's view and permissions over a
// document with the same node identifiers and contents as doc (typically
// the committed version doc was cloned from): the select sees v, the
// privilege checks see pm, and nothing is re-derived. v is only read, so
// a frozen, shared view is fine.
func ExecuteOnViewCtx(ctx context.Context, doc *xmltree.Document, v *view.View, pm *policy.Perms, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	if err := checkOp(op); err != nil {
		return nil, err
	}
	return execute(ctx, doc, v, pm, user, op, extra)
}

// checkOp rejects operations the single-op executor cannot run.
func checkOp(op *xupdate.Op) error {
	if err := op.Validate(); err != nil {
		return err
	}
	if op.Kind == xupdate.Variable {
		return fmt.Errorf("access: variable bindings need a sequence context (Session.Apply)")
	}
	return nil
}

// execute selects op's targets on v and applies the axiom 18–25 checks
// node by node against doc.
func execute(ctx context.Context, doc *xmltree.Document, v *view.View, pm *policy.Perms, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	vars := make(xpath.Vars, len(extra)+1)
	for k, val := range extra {
		vars[k] = val
	}
	vars["USER"] = xpath.String(user)
	run := op
	if op.HasDynamicContent() {
		expanded, err := op.ExpandContent(v.Doc.Root(), vars)
		if err != nil {
			return nil, fmt.Errorf("access: expanding dynamic content on view: %w", err)
		}
		cp := *op
		cp.Content = expanded
		run = &cp
	}
	_, selSpan := obs.StartSpanCtx(ctx, "view_select", selectStage)
	sel, err := xpath.Select(v.Doc, run.Select, vars)
	selSpan.AnnotateInt("selected", int64(len(sel)))
	selSpan.End()
	if err != nil {
		opOutcome(op.Kind, "error")
		return nil, fmt.Errorf("access: evaluating select path on view: %w", err)
	}
	res := &xupdate.Result{Selected: len(sel)}
	_, applySpan := obs.StartSpanCtx(ctx, "secured_apply", applyStage)
	applySpan.Annotate("kind", op.Kind.MetricLabel())
	for _, vn := range sel {
		if err := applySecured(doc, pm, v, run, vn, res); err != nil {
			applySpan.End()
			opOutcome(op.Kind, "error")
			return nil, err
		}
	}
	applySpan.AnnotateInt("applied", int64(res.Applied))
	applySpan.AnnotateInt("skipped", int64(len(res.Skipped)))
	applySpan.End()
	nodesApplied.Add(uint64(res.Applied))
	nodesSkipped.Add(uint64(len(res.Skipped)))
	switch {
	case res.Applied > 0:
		opOutcome(op.Kind, "applied")
	case len(res.Skipped) > 0:
		opOutcome(op.Kind, "skipped")
	default:
		opOutcome(op.Kind, "noop")
	}
	return res, nil
}

// skip records a per-node refusal.
func skip(res *xupdate.Result, n *xmltree.Node, reason string) {
	res.Skipped = append(res.Skipped, xupdate.SkipReason{NodeID: n.IDString(), Reason: reason})
}

// applySecured enforces the §4.4.2 requirements for one node selected on
// the view and, if satisfied, performs the change on the source document.
func applySecured(doc *xmltree.Document, pm *policy.Perms, v *view.View, op *xupdate.Op, vn *xmltree.Node, res *xupdate.Result) error {
	// Map the view node back to its source node via the shared identifier.
	src := doc.NodeByID(vn.ID())
	if src == nil {
		// The node vanished from the source while this op ran over a
		// multi-node selection (e.g. removed with an earlier target).
		skip(res, vn, "node no longer exists in the source document")
		return nil
	}
	switch op.Kind {
	case xupdate.Rename:
		if src.Kind() == xmltree.KindDocument {
			skip(res, vn, "cannot rename the document node")
			return nil
		}
		if !pm.Has(src, policy.Update) {
			skip(res, vn, "update privilege required")
			return nil
		}
		if !pm.Has(src, policy.Read) {
			// The node is in the view only via position: its label shows as
			// RESTRICTED and must not be overwritten blindly.
			skip(res, vn, "node is RESTRICTED: renaming would overwrite a label the user cannot see")
			return nil
		}
		old := src.Label()
		if err := doc.Rename(src, op.NewValue); err != nil {
			return err
		}
		if old != op.NewValue {
			res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRelabel, NodeID: src.IDString(), NewLabel: op.NewValue})
		}
		res.Applied++
	case xupdate.Update:
		// Axioms 20–21: the children of the selected node *in the view*,
		// each requiring both update and read.
		kids := vn.Children()
		if len(kids) == 0 {
			skip(res, vn, "no children visible to update (xupdate:update renames the children of the selected node)")
			return nil
		}
		applied := false
		for _, vk := range kids {
			sk := doc.NodeByID(vk.ID())
			if sk == nil {
				skip(res, vk, "child no longer exists in the source document")
				continue
			}
			if !pm.Has(sk, policy.Update) {
				skip(res, vk, "update privilege required on the child")
				continue
			}
			if !pm.Has(sk, policy.Read) {
				skip(res, vk, "read privilege required on the child (axiom 21)")
				continue
			}
			old := sk.Label()
			if err := doc.Rename(sk, op.NewValue); err != nil {
				return err
			}
			if old != op.NewValue {
				res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRelabel, NodeID: sk.IDString(), NewLabel: op.NewValue})
			}
			applied = true
		}
		if applied {
			res.Applied++
		}
	case xupdate.Append:
		if !pm.Has(src, policy.Insert) {
			skip(res, vn, "insert privilege required")
			return nil
		}
		for _, top := range op.Content.Root().Children() {
			created, err := graft(doc, src, xmltree.GraftAppend, top, res)
			if err != nil {
				return err
			}
			res.Created += created
		}
		res.Applied++
	case xupdate.InsertBefore, xupdate.InsertAfter:
		// Axioms 23–24: insert privilege on the parent of the selected node.
		parent := vn.Parent()
		if parent == nil || src.Parent() == nil {
			skip(res, vn, "document node has no siblings")
			return nil
		}
		srcParent := doc.NodeByID(parent.ID())
		if srcParent == nil || !pm.Has(srcParent, policy.Insert) {
			skip(res, vn, "insert privilege required on the parent")
			return nil
		}
		mode := xmltree.GraftBefore
		tops := op.Content.Root().Children()
		if op.Kind == xupdate.InsertAfter {
			mode = xmltree.GraftAfter
			for i := len(tops) - 1; i >= 0; i-- {
				created, err := graft(doc, src, mode, tops[i], res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		} else {
			for _, top := range tops {
				created, err := graft(doc, src, mode, top, res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		}
		res.Applied++
	case xupdate.Remove:
		if !pm.Has(src, policy.Delete) {
			skip(res, vn, "delete privilege required")
			return nil
		}
		// Axiom 25: the whole source subtree goes, including nodes the user
		// cannot see (confidentiality over integrity).
		sub := src.Subtree()
		ids := make([]string, len(sub))
		for i, s := range sub {
			ids[i] = s.IDString()
		}
		res.Removed += len(sub)
		if err := doc.Remove(src); err != nil {
			return err
		}
		res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaRemove, NodeID: ids[0], RemovedIDs: ids})
		res.Applied++
	default:
		return fmt.Errorf("access: unknown operation kind %d", int(op.Kind))
	}
	return nil
}

// graft grafts srcTop relative to ref, records the insert delta, and
// returns the number of nodes created.
func graft(doc *xmltree.Document, ref *xmltree.Node, mode xmltree.GraftMode, srcTop *xmltree.Node, res *xupdate.Result) (int, error) {
	top, err := doc.Graft(ref, mode, srcTop)
	if err != nil {
		return 0, err
	}
	res.Deltas = append(res.Deltas, xupdate.Delta{Kind: xupdate.DeltaInsert, NodeID: top.IDString()})
	return len(top.Subtree()), nil
}
