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

	"securexml/internal/labeling"
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
// active trace it records a view_materialize span annotated with the node
// accounting.
func MaterializeCtx(ctx context.Context, src *xmltree.Document, pm *policy.Perms) *View {
	_, sp := obs.StartSpanCtx(ctx, "view_materialize", matStage)
	v := &View{
		Doc:           xmltree.New(src.Scheme()),
		User:          pm.User(),
		SourceVersion: src.Version(),
	}
	copySelected(v, pm, src.Root(), v.Doc.Root())
	sp.AnnotateInt("nodes", int64(v.Doc.Len()))
	sp.AnnotateInt("restricted", int64(v.Restricted))
	sp.AnnotateInt("hidden", int64(v.Hidden))
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
// by the ordinals of the source's lineage (see policy.Perms).
func selectLabel(pm *policy.Perms, n *xmltree.Node) (string, bool) {
	switch {
	case pm.Has(n, policy.Read):
		return n.Label(), true
	case pm.Has(n, policy.Position):
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

// Snapshot returns an independent deep copy of the view. Incremental
// maintenance patches a cached view in place, so callers that hand a view
// out of the owning lock's scope must snapshot it first. Identifiers are
// preserved by Clone, so write-path mapping still works on the copy.
func (v *View) Snapshot() *View {
	return &View{
		Doc:           v.Doc.Clone(),
		User:          v.User,
		SourceVersion: v.SourceVersion,
		Restricted:    v.Restricted,
		Hidden:        v.Hidden,
	}
}

// Visible reports whether the node with the given source identifier appears
// in the view (with either its label or RESTRICTED).
func (v *View) Visible(id string) bool {
	l, err := labeling.Parse(id)
	if err != nil {
		return false
	}
	return v.Doc.NodeByID(l) != nil
}

// IsRestricted reports whether the node appears in the view with the
// RESTRICTED label. A node legitimately labeled "RESTRICTED" in the source
// is indistinguishable by design (the label semantics is Sandhu & Jajodia's
// cover story).
func (v *View) IsRestricted(id string) bool {
	l, err := labeling.Parse(id)
	if err != nil {
		return false
	}
	n := v.Doc.NodeByID(l)
	return n != nil && n.Label() == xmltree.Restricted
}
