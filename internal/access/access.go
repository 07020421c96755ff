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
// and a full materialization (axioms 15–17), then the execute step, which
// selects on that view and changes the document in place. They are the
// specification. ExecuteFilteredCtx runs the same execute step with no
// view document at all: it selects under qfilter.ForPerms over
// permissions the caller already holds (the §5 filtered evaluation,
// answer-equivalent to the view), and value-of content is evaluated under
// the same filter and copied through it. internal/core runs every secured
// write through it: on the frozen published generation the commit round
// started from, with the writing session's incrementally maintained
// permissions of that generation, copying the base only just before the
// first change; or, once an earlier request in the same round changed the
// document, the policy or the subject hierarchy, on the round's scratch
// document under permissions evaluated afresh on it.
package access

import (
	"context"
	"errors"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
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
// from doc (axioms 14–17), selects on it, and changes doc in place. It is
// the specification ExecuteFilteredCtx is held to, and runs the same
// execute step.
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
	w := &writer{root: v.Doc.Root(), doc: doc}
	res, err := w.execute(ctx, pm, user, op, extra)
	if err != nil {
		return nil, nil, err
	}
	return res, v, nil
}

// ExecuteFilteredCtx runs op for the user whose permissions over base are
// pm without a view document: op's select path runs on base under
// qfilter.ForPerms(pm), which answers exactly as the same path on the
// user's view would (§5), xupdate:update reads the selected node's
// children through the same filter (axioms 20–21), and the §4.4.2
// privilege checks read pm. Each change goes to the document mutable
// returns, which must be a clone of base (same identifiers and ordinals);
// mutable is called at most once, just before the first change, so a
// refused or no-op write copies nothing, and base is only read, so a
// frozen, published document is fine. With mutable nil the changes go to
// base itself, which must then be mutable. value-of content is evaluated on base under
// the same filter and copied through it. The caller vouches that pm is the
// user's own.
func ExecuteFilteredCtx(ctx context.Context, base *xmltree.Document, mutable func() *xmltree.Document, pm *policy.Perms, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	if err := checkOp(op); err != nil {
		return nil, err
	}
	w := &writer{root: base.Root(), sec: qfilter.ForPerms(pm), doc: base, mutable: mutable}
	return w.execute(ctx, pm, user, op, extra)
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

// writer is one secured operation in flight: where it selects and the
// document it changes.
type writer struct {
	// root is the selection root: the user's view document, or the source
	// under the filter sec (nil for a view, which needs no filter).
	root *xmltree.Node
	sec  *xpath.Security
	// doc is the document's current state: the one to change, or, until
	// mutable is called, the frozen base it will be copied from.
	doc     *xmltree.Document
	mutable func() *xmltree.Document
}

// node returns the current counterpart of a selected node, or nil once an
// earlier target of the same op removed it. The counterpart is a node of
// doc, the document (or a clone of the base) that the permissions were
// evaluated on, so it is the node every privilege check reads: pm's cells
// are keyed by ordinal, and a view node's ordinal is not its source's.
func (w *writer) node(n *xmltree.Node) *xmltree.Node { return w.doc.NodeByID(n.IDString()) }

// writable returns the document to change and n's counterpart in it,
// taking the copy of the base on the first change.
func (w *writer) writable(n *xmltree.Node) (*xmltree.Document, *xmltree.Node) {
	if w.mutable != nil {
		w.doc, w.mutable = w.mutable(), nil
		n = w.node(n)
	}
	return w.doc, n
}

// execute selects op's targets and applies the axiom 18–25 checks node
// by node.
func (w *writer) execute(ctx context.Context, pm *policy.Perms, user string, op *xupdate.Op, extra xpath.Vars) (*xupdate.Result, error) {
	vars := make(xpath.Vars, len(extra)+1)
	for k, val := range extra {
		vars[k] = val
	}
	vars["USER"] = xpath.String(user)
	run := op
	if op.HasDynamicContent() {
		expanded, err := op.ExpandContent(w.root, vars, w.sec)
		if err != nil {
			return nil, fmt.Errorf("access: expanding dynamic content on view: %w", err)
		}
		cp := *op
		cp.Content = expanded
		run = &cp
	}
	_, selSpan := obs.StartSpanCtx(ctx, "view_select", selectStage)
	var sel xpath.NodeSet
	c, err := xpath.Compile(run.Select)
	if err == nil {
		sel, err = c.SelectFiltered(w.root, vars, w.sec)
	}
	selSpan.AnnotateInt("selected", int64(len(sel)))
	selSpan.End()
	if err != nil {
		opOutcome(op.Kind, "error")
		return nil, fmt.Errorf("access: evaluating select path on view: %w", err)
	}
	res := &xupdate.Result{Selected: len(sel)}
	_, applySpan := obs.StartSpanCtx(ctx, "secured_apply", applyStage)
	applySpan.Annotate("kind", op.Kind.MetricLabel())
	for _, n := range sel {
		if err := w.apply(pm, run, n, res); err != nil {
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

// apply enforces the §4.4.2 requirements for one selected node sn (a node
// of the view, or a visible node of the source) and, if they hold,
// performs the change on the document.
func (w *writer) apply(pm *policy.Perms, op *xupdate.Op, sn *xmltree.Node, res *xupdate.Result) error {
	// Map the selected node to its current counterpart via the shared
	// identifier.
	src := w.node(sn)
	if src == nil {
		// The node vanished from the source while this op ran over a
		// multi-node selection (e.g. removed with an earlier target).
		skip(res, sn, "node no longer exists in the source document")
		return nil
	}
	switch op.Kind {
	case xupdate.Rename:
		if src.Kind() == xmltree.KindDocument {
			skip(res, sn, "cannot rename the document node")
			return nil
		}
		if !pm.Has(src, policy.Update) {
			skip(res, sn, "update privilege required")
			return nil
		}
		if !pm.Has(src, policy.Read) {
			// The node is in the view only via position: its label shows as
			// RESTRICTED and must not be overwritten blindly.
			skip(res, sn, "node is RESTRICTED: renaming would overwrite a label the user cannot see")
			return nil
		}
		if xmltree.CheckLabel(src.Kind(), op.NewValue) != nil {
			skip(res, sn, xupdate.SkipInvalidName)
			return nil
		}
		if err := w.relabel(src, op.NewValue, res); err != nil {
			return err
		}
		res.Applied++
	case xupdate.Update:
		// Axioms 20–21: the children of the selected node *in the view*
		// (those the filter lets through, on the source), each requiring
		// both update and read.
		visible := 0
		applied := false
		for _, c := range sn.Children() {
			if !w.sec.IsVisible(c) {
				continue
			}
			visible++
			sk := w.node(c)
			if sk == nil {
				skip(res, c, "child no longer exists in the source document")
				continue
			}
			if !pm.Has(sk, policy.Update) {
				skip(res, c, "update privilege required on the child")
				continue
			}
			if !pm.Has(sk, policy.Read) {
				skip(res, c, "read privilege required on the child (axiom 21)")
				continue
			}
			if xmltree.CheckLabel(sk.Kind(), op.NewValue) != nil {
				skip(res, c, xupdate.SkipInvalidName)
				continue
			}
			if err := w.relabel(sk, op.NewValue, res); err != nil {
				return err
			}
			applied = true
		}
		if visible == 0 {
			skip(res, sn, "no children visible to update (xupdate:update renames the children of the selected node)")
			return nil
		}
		if applied {
			res.Applied++
		}
	case xupdate.Append:
		if !pm.Has(src, policy.Insert) {
			skip(res, sn, "insert privilege required")
			return nil
		}
		doc, dst := w.writable(src)
		for _, top := range op.Content.Root().Children() {
			created, err := graft(doc, dst, xmltree.GraftAppend, top, res)
			if err != nil {
				return err
			}
			res.Created += created
		}
		res.Applied++
	case xupdate.InsertBefore, xupdate.InsertAfter:
		// Axioms 23–24: insert privilege on the parent of the selected node.
		parent := sn.Parent()
		if parent == nil || src.Parent() == nil {
			skip(res, sn, "document node has no siblings")
			return nil
		}
		srcParent := w.node(parent)
		if srcParent == nil || !pm.Has(srcParent, policy.Insert) {
			skip(res, sn, "insert privilege required on the parent")
			return nil
		}
		doc, ref := w.writable(src)
		mode := xmltree.GraftBefore
		tops := op.Content.Root().Children()
		if op.Kind == xupdate.InsertAfter {
			mode = xmltree.GraftAfter
			for i := len(tops) - 1; i >= 0; i-- {
				created, err := graft(doc, ref, mode, tops[i], res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		} else {
			for _, top := range tops {
				created, err := graft(doc, ref, mode, top, res)
				if err != nil {
					return err
				}
				res.Created += created
			}
		}
		res.Applied++
	case xupdate.Remove:
		if !pm.Has(src, policy.Delete) {
			skip(res, sn, "delete privilege required")
			return nil
		}
		// Axiom 25: the whole source subtree goes, including nodes the user
		// cannot see (confidentiality over integrity).
		doc, gone := w.writable(src)
		before := doc.Len()
		if err := doc.Remove(gone); err != nil {
			return err
		}
		res.Removed += before - doc.Len()
		res.Applied++
	default:
		return fmt.Errorf("access: unknown operation kind %d", int(op.Kind))
	}
	return nil
}

// relabel gives n the label label and records it as touched. A node that
// already carries it is left alone, so such a write copies nothing.
func (w *writer) relabel(n *xmltree.Node, label string, res *xupdate.Result) error {
	if n.Label() == label {
		return nil
	}
	doc, n := w.writable(n)
	if err := doc.Rename(n, label); err != nil {
		return err
	}
	res.Touched = append(res.Touched, n.IDString())
	return nil
}

// graft grafts srcTop relative to ref, records the inserted root, and
// returns the number of nodes created.
func graft(doc *xmltree.Document, ref *xmltree.Node, mode xmltree.GraftMode, srcTop *xmltree.Node, res *xupdate.Result) (int, error) {
	top, err := doc.Graft(ref, mode, srcTop)
	if err != nil {
		return 0, err
	}
	res.Touched = append(res.Touched, top.IDString())
	return len(top.Subtree()), nil
}
