// Package view implements the read access control of §4.4.1: deriving the
// pruned document view a user is permitted to see (axioms 15–17).
//
// The view strategy:
//
//   - the document node always belongs to the view (axiom 15);
//   - a node is selected iff its parent is selected and the user holds the
//     read privilege — it keeps its label (axiom 16) — or only the position
//     privilege — it appears with the RESTRICTED label (axiom 17);
//   - nodes with neither privilege disappear together with their entire
//     subtree, even parts the user could otherwise read (the "parent must
//     be selected" condition).
//
// Selected nodes keep their persistent identifiers — views are never
// renumbered, which is also how the secured write path maps view selections
// back to source nodes (§4.4.2). The identifiers are internal only and are
// not serialized to users.
package view

import (
	"context"

	"securexml/internal/obs"
	"securexml/internal/policy"
	"securexml/internal/xmltree"
)

// Telemetry: materialization is the dominant cost of the read path (axioms
// 15–17), so every derivation records its duration and node accounting.
var (
	matStage      = obs.Stage("view_materialize")
	matTotal      = obs.Default().Counter("xmlsec_view_materializations_total")
	matNodes      = obs.Default().Counter("xmlsec_view_nodes_total")
	matRestricted = obs.Default().Counter("xmlsec_view_restricted_total")
	matHidden     = obs.Default().Counter("xmlsec_view_hidden_total")
)

// View is a user's authorized view of a source document.
type View struct {
	// Doc is the materialized view document. Node identifiers coincide with
	// the source document's.
	Doc *xmltree.Document
	// User is the subject the view was derived for.
	User string
	// SourceVersion is the source document version the view reflects.
	SourceVersion uint64
	// Restricted counts nodes shown with the RESTRICTED label.
	Restricted int
	// Hidden counts source nodes not shown at all.
	Hidden int
}

// Materialize derives the view of src for the user whose permissions are pm
// (axioms 15–17).
func Materialize(src *xmltree.Document, pm *policy.Perms) *View {
	return MaterializeCtx(context.Background(), src, pm)
}

// MaterializeCtx is Materialize with request-scoped tracing: under an
// active trace it records a view_materialize span annotated with the
// view's node count. The counts of restricted and hidden nodes go to the
// process-wide counters only, not to the request's span.
func MaterializeCtx(ctx context.Context, src *xmltree.Document, pm *policy.Perms) *View {
	_, sp := obs.StartSpanCtx(ctx, "view_materialize", matStage)
	v := &View{
		Doc:           xmltree.New(src.Scheme()),
		User:          pm.User(),
		SourceVersion: src.Version(),
	}
	copySelected(v, pm, src.Root(), v.Doc.Root())
	sp.AnnotateInt("nodes", int64(v.Doc.Len()))
	sp.End()
	matTotal.Inc()
	matNodes.Add(uint64(v.Doc.Len()))
	matRestricted.Add(uint64(v.Restricted))
	matHidden.Add(uint64(v.Hidden))
	return v
}

// copySelected walks the source children of srcParent and adds the selected
// ones under dstParent, recursing only below selected nodes.
func copySelected(v *View, pm *policy.Perms, srcParent, dstParent *xmltree.Node) {
	for _, a := range srcParent.Attributes() {
		label, sel := selectLabel(pm, a)
		if !sel {
			v.Hidden += countNodes(a)
			continue
		}
		dst := mirrorNode(v.Doc, dstParent, a, label)
		if label == xmltree.Restricted {
			v.Restricted++
		}
		copySelected(v, pm, a, dst)
	}
	for _, c := range srcParent.Children() {
		label, sel := selectLabel(pm, c)
		if !sel {
			v.Hidden += countNodes(c)
			continue
		}
		dst := mirrorNode(v.Doc, dstParent, c, label)
		if label == xmltree.Restricted {
			v.Restricted++
		}
		copySelected(v, pm, c, dst)
	}
}

// selectLabel decides visibility of one node: (original label, true) with
// read; (RESTRICTED, true) with position only (axiom 17); ("", false)
// otherwise. n is a source node, never a view node: pm's cells are keyed
// by the ordinals of the source's lineage (see policy.Perms). Like the
// permission filter every production read goes through, it reads cells
// with Peek: deriving a view is not an enforcement decision, and the
// explain layer's cross-check derives one.
func selectLabel(pm *policy.Perms, n *xmltree.Node) (string, bool) {
	switch {
	case pm.Peek(n, policy.Read):
		return n.Label(), true
	case pm.Peek(n, policy.Position):
		return xmltree.Restricted, true
	default:
		return "", false
	}
}

// mirrorNode appends a copy of src (with the possibly RESTRICTED label)
// under dstParent, preserving the persistent identifier. Mirroring happens
// in document order under a parent owned by the view, so it cannot fail.
func mirrorNode(doc *xmltree.Document, dstParent, src *xmltree.Node, label string) *xmltree.Node {
	n, err := doc.MirrorChild(dstParent, src.Kind(), label, src.ID())
	if err != nil {
		panic("view: internal mirroring invariant violated: " + err.Error())
	}
	return n
}

func countNodes(n *xmltree.Node) int {
	total := 0
	n.Walk(func(*xmltree.Node) bool {
		total++
		return true
	})
	return total
}

// Visible reports whether the node with the given source identifier appears
// in the view (with either its label or RESTRICTED).
func (v *View) Visible(id string) bool { return v.Doc.NodeByID(id) != nil }

// IsRestricted reports whether the node appears in the view with the
// RESTRICTED label. A node legitimately labeled "RESTRICTED" in the source
// is indistinguishable by design (the label semantics is Sandhu & Jajodia's
// cover story).
func (v *View) IsRestricted(id string) bool {
	n := v.Doc.NodeByID(id)
	return n != nil && n.Label() == xmltree.Restricted
}
