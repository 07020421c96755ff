// Session.Explain: the user-facing decision-provenance endpoint. It
// combines the policy layer's axiom-14 story (internal/policy/explain.go)
// with what the production path actually serves — the cached Perms cell —
// and cross-checks the two: the re-derived winner must equal the
// production cell for every privilege, and the axiom 15–17 verdict
// derived from the cells alone must match a fresh materialization of the
// view (the specification) node-for-node. A mismatch means the provenance explanation and the
// enforcement disagree, which the differential tests treat as a bug.
package core

import (
	"context"
	"fmt"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/view"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
)

var explainStage = obs.Stage("session_explain")

// Visibility verdicts of the explain layer (axioms 15–17).
const (
	// VerdictVisible: the node appears in the view with its real label
	// (read privilege, axiom 16).
	VerdictVisible = "visible"
	// VerdictRestricted: the node appears with the RESTRICTED label
	// (position without read, axiom 17).
	VerdictRestricted = "restricted"
	// VerdictHiddenByParent: the node holds read or position itself, but
	// an ancestor is not selected, so the whole subtree is pruned (the
	// "parent must be selected" condition of axiom 16/17).
	VerdictHiddenByParent = "hidden-by-parent"
	// VerdictNoRead: the node holds neither read nor position and is
	// hidden by its own cells (closed world).
	VerdictNoRead = "no-read"
)

// NodeExplanation is one node's full explain record: the axiom-14 rule
// story, where the production cell came from, and the axiom 15–17
// visibility verdict, with the differential check result.
type NodeExplanation struct {
	policy.NodeStory
	// Origin is the production cell's location: "overlay",
	// "shared-profile" or "private" (see Perms.CellOrigin).
	Origin string `json:"origin"`
	// Visibility is the axiom 15–17 verdict derived from the cells.
	Visibility string `json:"visibility"`
	// Consistent is false when the re-derived story disagrees with the
	// production Perms cell or the materialized view.
	Consistent bool     `json:"consistent"`
	Mismatches []string `json:"mismatches,omitempty"`
}

// Explanation is the result of Session.Explain.
type Explanation struct {
	User            string            `json:"user"`
	XPath           string            `json:"xpath"`
	DocVersion      uint64            `json:"doc_version"`
	PolicyEpoch     uint64            `json:"policy_epoch"`
	RulesApplicable int               `json:"rules_applicable"`
	Nodes           []NodeExplanation `json:"nodes"`
	// Consistent is the conjunction of the per-node checks.
	Consistent bool `json:"consistent"`
}

// Explain re-derives the access-control story for every node the XPath
// expression matches on the *source* document (hidden nodes are exactly
// the ones worth explaining, so selection must not run on the view).
// It is a diagnostic operation — each call costs a cold policy
// evaluation — and is never on the hot path.
func (s *Session) Explain(path string) (*Explanation, error) {
	return s.ExplainCtx(context.Background(), path)
}

// ExplainCtx is Explain with a request context.
func (s *Session) ExplainCtx(ctx context.Context, path string) (*Explanation, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "session_explain", explainStage)
	// Pin one generation for the whole explanation: the permission
	// cells, the view and the re-derived story all come from the same
	// snapshot even while commits land concurrently.
	g := s.db.gen()
	pm, err := s.currentPerms(ctx, g)
	if err != nil {
		sessionOp("explain", "error")
		s.db.recordCtx(ctx, "explain", s.user, path, "error: "+err.Error(), sp.End())
		return nil, err
	}
	v := view.MaterializeCtx(ctx, g.doc, pm)
	// ns are nodes of g.doc, whose lineage pm's ordinal-keyed cells were
	// evaluated on (see policy.Perms).
	ns, err := xpath.Select(g.doc, path, s.vars())
	if err != nil {
		sessionOp("explain", "error")
		s.db.recordCtx(ctx, "explain", s.user, path, "error: "+err.Error(), sp.End())
		return nil, err
	}
	stories, applicable, err := g.policy.Explain(g.doc, g.subjects, s.user, ns)
	if err != nil {
		sessionOp("explain", "error")
		s.db.recordCtx(ctx, "explain", s.user, path, "error: "+err.Error(), sp.End())
		return nil, err
	}
	ex := &Explanation{
		User: s.user, XPath: path,
		DocVersion: g.ver(), PolicyEpoch: g.epoch,
		RulesApplicable: applicable,
		Nodes:           make([]NodeExplanation, 0, len(ns)),
		Consistent:      true,
	}
	for i, n := range ns {
		ne := explainNode(stories[i], n, pm, v)
		if !ne.Consistent {
			ex.Consistent = false
		}
		ex.Nodes = append(ex.Nodes, ne)
	}
	sessionOp("explain", "ok")
	s.db.recordCtx(ctx, "explain", s.user, path,
		fmt.Sprintf("%d nodes, consistent=%t", len(ex.Nodes), ex.Consistent), sp.End())
	return ex, nil
}

// explainNode assembles one node's explanation and runs the differential
// checks against the production permissions and the view v materialized
// from them.
func explainNode(st policy.NodeStory, n *xmltree.Node, pm *policy.Perms, v *view.View) NodeExplanation {
	ne := NodeExplanation{
		NodeStory:  st,
		Origin:     pm.CellOrigin(n),
		Consistent: true,
	}
	// Differential check 1 (axiom 14): the re-derived winner must equal
	// the production cell, privilege by privilege.
	for j, priv := range policy.Privileges {
		story := st.Privileges[j]
		actual := pm.Peek(n, priv)
		if story.Granted != actual {
			ne.Consistent = false
			ne.Mismatches = append(ne.Mismatches, fmt.Sprintf(
				"axiom-14: provenance says %s=%t, production cell says %t",
				priv, story.Granted, actual))
		}
	}
	// Axiom 15–17 verdict, derived from the cells alone.
	ne.Visibility = deriveVisibility(n, pm)
	// Differential check 2: the derived verdict must match the
	// materialized view node-for-node.
	visible := ne.Visibility == VerdictVisible || ne.Visibility == VerdictRestricted
	if v.Visible(st.NodeID) != visible {
		ne.Consistent = false
		ne.Mismatches = append(ne.Mismatches, fmt.Sprintf(
			"axiom-15-17: verdict %q but view visibility is %t",
			ne.Visibility, v.Visible(st.NodeID)))
	} else if visible && v.IsRestricted(st.NodeID) != (ne.Visibility == VerdictRestricted) &&
		n.Label() != xmltree.Restricted {
		// A source node legitimately labeled RESTRICTED is
		// indistinguishable by design (the cover-story semantics), so the
		// restricted cross-check skips it.
		ne.Consistent = false
		ne.Mismatches = append(ne.Mismatches, fmt.Sprintf(
			"axiom-17: verdict %q but view restricted=%t",
			ne.Visibility, v.IsRestricted(st.NodeID)))
	}
	return ne
}

// deriveVisibility computes the axiom 15–17 verdict for n from the
// permission cells alone (no view): the document node is always in the
// view (axiom 15); otherwise the node needs read or position itself —
// read keeps the label (axiom 16), position alone shows RESTRICTED
// (axiom 17) — and every ancestor up to the document node must be
// selected too, or the node vanishes with its subtree.
func deriveVisibility(n *xmltree.Node, pm *policy.Perms) string {
	if n.Kind() == xmltree.KindDocument {
		return VerdictVisible
	}
	if !selectedLocally(pm, n) {
		return VerdictNoRead
	}
	for a := n.Parent(); a != nil && a.Kind() != xmltree.KindDocument; a = a.Parent() {
		if !selectedLocally(pm, a) {
			return VerdictHiddenByParent
		}
	}
	if pm.Peek(n, policy.Read) {
		return VerdictVisible
	}
	return VerdictRestricted
}

// selectedLocally reports whether the node's own cells admit it into the
// view (read or position), ignoring ancestors.
func selectedLocally(pm *policy.Perms, n *xmltree.Node) bool {
	return pm.Peek(n, policy.Read) || pm.Peek(n, policy.Position)
}
