// Incremental view maintenance: patching a materialized view after an
// XUpdate instead of re-deriving it from scratch (axioms 15–17 applied to
// the touched subtree only).
//
// Soundness rests on the policy.NodeEvaluator eligibility gate: when every
// rule applicable to the user is chain-only (membership of a node in the
// rule's select set depends solely on the node's root-to-node labels and
// kinds), an update can change perm(s, n, r) only for nodes inside the
// subtree it touched —
//
//   - a relabel (axioms 2–5 / 18–21) changes the chain of exactly the
//     relabeled node's subtree, so only there can rule membership flip;
//   - an insert (axioms 6–7 / 22–24) introduces new chains only for the
//     inserted nodes; existing chains are untouched (sibling positions do
//     not matter — positional predicates are outside the fragment);
//   - a remove (axioms 8–9 / 25) deletes chains; surviving chains are
//     untouched.
//
// Maintenance comes in two halves, which a caller may run at different
// times:
//
//   - the permissions half (PatchPermsCtx) re-runs axiom 14 over the
//     touched subtrees: Rescore recomputes their cells in the copy's
//     overlay — O(delta). Removed nodes need nothing: cells are keyed by
//     node ordinal, which is never reused, so a removed node's cell is
//     never read again, even when its identifier is re-issued;
//   - the view half (CatchUpViewCtx) re-runs axioms 15–17 over the same
//     subtrees against permissions that are already current: reconcile
//     mirrors the show/RESTRICTED/hide decision into a snapshot of the
//     view. It may cover a whole chain of batches at once, so a session
//     that only reads through the permission filter patches its
//     permissions on every read and its view only when something needs
//     the view document.
//
// Apply runs both halves over one batch in place. Policy changes (a new
// rule can address any node) and non-chain-only policies fall back to full
// Evaluate + Materialize — the caller counts those fallbacks.
package view

import (
	"context"
	"fmt"

	"securexml/internal/labeling"
	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// Telemetry: incremental applications and their duration, distinguishable
// from full materializations on /metrics.
var (
	incStage   = obs.Stage("view_incremental")
	incApplied = obs.Default().Counter("xmlsec_view_incremental_applied_total")
)

// Maintainer patches one user's cached view in response to XUpdate deltas.
// It is tied to a (policy, hierarchy, user) triple; any policy change
// invalidates it.
type Maintainer struct {
	ne *policy.NodeEvaluator
}

// NewMaintainer compiles the per-node form of the policy for user. It
// returns (nil, false) when the policy is not chain-only for this user, in
// which case incremental maintenance would be unsound and callers must
// keep re-materializing.
func NewMaintainer(pol *policy.Policy, h *subject.Hierarchy, user string) (*Maintainer, bool) {
	ne, ok := pol.NodeEvaluator(h, user)
	if !ok {
		return nil, false
	}
	return &Maintainer{ne: ne}, true
}

// Apply patches v — materialized from an earlier version of src under pm —
// so that it equals Materialize(src, Evaluate(src)) after the given deltas
// were applied to src. pm is updated in place alongside the view. On error
// both v and pm may be half-patched and must be discarded.
func (m *Maintainer) Apply(v *View, src *xmltree.Document, pm *policy.Perms, deltas []xupdate.Delta) error {
	return m.ApplyCtx(context.Background(), v, src, pm, deltas)
}

// ApplyCtx is Apply with request-scoped tracing. It is the composition of
// the two halves over one batch, in place: the permissions half, then the
// view half against the now-current permissions, each in its own
// view_incremental span.
func (m *Maintainer) ApplyCtx(ctx context.Context, v *View, src *xmltree.Document, pm *policy.Perms, deltas []xupdate.Delta) error {
	chain := [][]xupdate.Delta{deltas}
	if err := part(ctx, "perms", chain, func() error { return m.rescore(src, pm, chain) }); err != nil {
		return err
	}
	return part(ctx, "view", chain, func() error { return reconcileChain(v, src, pm, chain) })
}

// PatchPermsCtx is the permissions half: it returns a copy of pm — the
// relation for an earlier version of src — advanced over the delta chain
// to src's version, re-running axiom 14 (Rescore) over the touched
// subtrees only. pm itself is not modified; the copy is
// Perms.Clone, O(overlay), so the whole patch costs O(delta).
func (m *Maintainer) PatchPermsCtx(ctx context.Context, src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) (*policy.Perms, error) {
	var out *policy.Perms
	err := part(ctx, "perms", chain, func() error {
		out = pm.Clone()
		return m.rescore(src, out, chain)
	})
	return out, err
}

// CatchUpViewCtx is the view half: it returns a copy of v — the view of an
// earlier version of src — reconciled over the delta chain against pm,
// which must already be current for src (PatchPermsCtx's result). It runs
// no policy rule (axioms 15–17 only). v itself is not modified; the copy
// is a View.Snapshot, O(view).
func (m *Maintainer) CatchUpViewCtx(ctx context.Context, v *View, src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) (*View, error) {
	var out *View
	err := part(ctx, "view", chain, func() error {
		out = v.Snapshot()
		return reconcileChain(out, src, pm, chain)
	})
	return out, err
}

// part runs one half in its own view_incremental span, annotated with the
// half's name and the chain's batch and delta counts, and counts it in
// xmlsec_view_incremental_applied_total when it succeeds.
func part(ctx context.Context, name string, chain [][]xupdate.Delta, run func() error) error {
	_, sp := obs.StartSpanCtx(ctx, "view_incremental", incStage)
	defer sp.End()
	sp.Annotate("part", name)
	sp.AnnotateInt("batches", int64(len(chain)))
	deltas := 0
	for _, b := range chain {
		deltas += len(b)
	}
	sp.AnnotateInt("deltas", int64(deltas))
	if err := run(); err != nil {
		return err
	}
	incApplied.Inc()
	return nil
}

// rescore is the permissions half in place. Each touched subtree is
// rescored as it stands in src, which a later delta of the chain may
// already have changed again; that delta rescores it once more. A removal
// touches no surviving node, so it has nothing to rescore.
func (m *Maintainer) rescore(src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) error {
	for _, deltas := range chain {
		for _, d := range deltas {
			if d.Kind == xupdate.DeltaRemove {
				continue
			}
			_, sn, err := deltaNode(src, d)
			if err != nil {
				return err
			}
			if sn == nil {
				continue
			}
			var rescoreErr error
			sn.Walk(func(n *xmltree.Node) bool {
				if err := m.ne.Rescore(pm, n); err != nil {
					rescoreErr = err
					return false
				}
				return true
			})
			if rescoreErr != nil {
				return rescoreErr
			}
		}
	}
	pm.SetDocVersion(src.Version())
	return nil
}

// reconcileChain is the view half in place: it mirrors every delta's
// show/RESTRICTED/hide decision (axioms 15–17) into v, reading the final
// src and the current pm. The view is keyed by identifier, so whatever an
// earlier delta leaves stale — a node reconciled before a later delta
// removed or re-inserted it — the later delta, processed after it,
// reconciles again.
func reconcileChain(v *View, src *xmltree.Document, pm *policy.Perms, chain [][]xupdate.Delta) error {
	for _, deltas := range chain {
		for _, d := range deltas {
			id, sn, err := deltaNode(src, d)
			if err != nil {
				return err
			}
			if d.Kind == xupdate.DeltaRemove || sn == nil {
				// A removal; or the inserted/relabeled node was itself
				// removed by a later delta, which drops it too, but be
				// defensive about view leftovers.
				if err := dropView(v, id); err != nil {
					return err
				}
				continue
			}
			if err := reconcile(v, pm, sn); err != nil {
				return err
			}
		}
	}
	v.Hidden = src.Len() - v.Doc.Len()
	v.SourceVersion = src.Version()
	return nil
}

// deltaNode resolves a delta's node identifier in src; the node is nil
// when it is gone (removed by this or a later delta).
func deltaNode(src *xmltree.Document, d xupdate.Delta) (labeling.Label, *xmltree.Node, error) {
	id, err := labeling.Parse(d.NodeID)
	if err != nil {
		return nil, nil, fmt.Errorf("view: delta node id: %w", err)
	}
	return id, src.NodeByID(id), nil
}

// dropView removes the subtree rooted at id from the view, if present.
func dropView(v *View, id labeling.Label) error {
	vn := v.Doc.NodeByID(id)
	if vn == nil {
		return nil
	}
	v.Restricted -= restrictedIn(vn)
	return v.Doc.Remove(vn)
}

// reconcile brings the view's rendition of source node sn (and its whole
// subtree) in line with pm. sn's parent decides where to attach: if the
// parent is not visible, sn cannot be either (the axiom 16/17 "parent must
// be selected" condition).
func reconcile(v *View, pm *policy.Perms, sn *xmltree.Node) error {
	parent := sn.Parent()
	if parent == nil {
		return fmt.Errorf("view: cannot reconcile the document node")
	}
	vp := v.Doc.NodeByID(parent.ID())
	if vp == nil {
		// Parent hidden ⇒ whole subtree hidden, whatever sn's own perms.
		return dropView(v, sn.ID())
	}
	return reconcileUnder(v, pm, sn, vp)
}

// reconcileUnder reconciles sn below the (visible) view parent vp.
func reconcileUnder(v *View, pm *policy.Perms, sn *xmltree.Node, vp *xmltree.Node) error {
	label, sel := selectLabel(pm, sn)
	vn := v.Doc.NodeByID(sn.ID())
	if !sel {
		if vn != nil {
			if err := dropView(v, sn.ID()); err != nil {
				return err
			}
		}
		return nil
	}
	if vn == nil {
		n, err := v.Doc.MirrorInsert(vp, sn.Kind(), label, sn.ID())
		if err != nil {
			return fmt.Errorf("view: mirroring %s: %w", sn.ID(), err)
		}
		vn = n
		if label == xmltree.Restricted {
			v.Restricted++
		}
	} else if vn.Label() != label {
		if vn.Label() == xmltree.Restricted {
			v.Restricted--
		}
		if label == xmltree.Restricted {
			v.Restricted++
		}
		if err := v.Doc.Rename(vn, label); err != nil {
			return err
		}
	}
	for _, a := range sn.Attributes() {
		if err := reconcileUnder(v, pm, a, vn); err != nil {
			return err
		}
	}
	for _, c := range sn.Children() {
		if err := reconcileUnder(v, pm, c, vn); err != nil {
			return err
		}
	}
	return nil
}

// restrictedIn counts RESTRICTED-labeled nodes in a view subtree.
func restrictedIn(n *xmltree.Node) int {
	total := 0
	n.Walk(func(m *xmltree.Node) bool {
		if m.Label() == xmltree.Restricted {
			total++
		}
		return true
	})
	return total
}
