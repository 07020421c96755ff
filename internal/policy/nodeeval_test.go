package policy

import (
	"testing"

	"securexml/internal/subject"
	"securexml/internal/xmltree"
)

const nodeevalXML = `<patients>
  <franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck>
  <robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert>
</patients>`

func nodeevalEnv(t *testing.T) (*xmltree.Document, *subject.Hierarchy, *Policy) {
	t.Helper()
	d, err := xmltree.ParseString(nodeevalXML, xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := subject.NewHierarchy()
	if err := h.AddRole("staff"); err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"secretary", "doctor", "epidemiologist"} {
		if err := h.AddRole(role, "staff"); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddRole("patient"); err != nil {
		t.Fatal(err)
	}
	for user, role := range map[string]string{"beaufort": "secretary", "laporte": "doctor", "richard": "epidemiologist", "franck": "patient", "robert": "patient"} {
		if err := h.AddUser(user, role); err != nil {
			t.Fatal(err)
		}
	}
	p, err := PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// TestRescoreMatchesEvaluate: for every user of the paper scenario,
// rescoring each node individually must reproduce exactly the grant masks
// the full Evaluate computes — axiom 14 node by node.
func TestRescoreMatchesEvaluate(t *testing.T) {
	d, h, p := nodeevalEnv(t)
	for _, user := range []string{"beaufort", "laporte", "richard", "franck", "robert"} {
		ne, ok := p.NodeEvaluator(h, user)
		if !ok {
			t.Fatalf("%s: paper policy should be matchable", user)
		}
		want, err := p.Evaluate(d, h, user)
		if err != nil {
			t.Fatal(err)
		}
		got := &Perms{user: user}
		for _, n := range d.Nodes() {
			if err := ne.Rescore(got, n); err != nil {
				t.Fatalf("%s rescore %s: %v", user, n.ID(), err)
			}
		}
		got.flatten() // compare whole bases, overlay folded in
		for ord := uint32(0); ord < d.OrdLimit(); ord++ {
			if g, w := got.base(ord), want.base(ord); g != w {
				t.Errorf("%s ordinal %d: rescore mask %08b, Evaluate %08b", user, ord, g, w)
			}
		}
	}
}

// TestRescoreOverwritesStale: Rescore must replace a stale mask, deleting
// the cell entirely when no privilege remains.
func TestRescoreOverwritesStale(t *testing.T) {
	d, h, p := nodeevalEnv(t)
	ne, ok := p.NodeEvaluator(h, "richard")
	if !ok {
		t.Fatal("not matchable")
	}
	n := d.RootElement().Children()[0] // franck element: position-only for the epidemiologist
	pm := &Perms{user: "richard", grants: make([]uint8, d.OrdLimit())}
	pm.grants[n.Ord()] = 1 << uint(Read) // stale: pretend read was granted
	if err := ne.Rescore(pm, n); err != nil {
		t.Fatal(err)
	}
	if pm.Has(n, Read) {
		t.Error("stale read grant survived rescore")
	}
	if !pm.Has(n, Position) {
		t.Error("position grant missing after rescore")
	}
	// A node with no privileges at all loses its cell: for the patient
	// franck, nothing grants anything inside robert's subtree.
	neF, ok := p.NodeEvaluator(h, "franck")
	if !ok {
		t.Fatal("not matchable")
	}
	txt := d.RootElement().Children()[1].Children()[0].Children()[0] // robert's service text
	pmF := &Perms{user: "franck", grants: make([]uint8, d.OrdLimit())}
	pmF.grants[txt.Ord()] = 1 << uint(Delete)
	if err := neF.Rescore(pmF, txt); err != nil {
		t.Fatal(err)
	}
	if stale := pmF.Mask(txt); stale != 0 {
		t.Errorf("empty mask should clear the grant cell, got %08b", stale)
	}
}

// TestNodeEvaluatorIneligible: a rule with a positional predicate applicable
// to the user defeats compilation; the same rule for an unrelated subject
// does not.
func TestNodeEvaluatorIneligible(t *testing.T) {
	d, h, p := nodeevalEnv(t)
	_ = d
	if err := p.Grant(h, Read, "/patients/*[1]", "doctor"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.NodeEvaluator(h, "laporte"); ok {
		t.Error("positional rule applicable to laporte should defeat NodeEvaluator")
	}
	if _, ok := p.NodeEvaluator(h, "franck"); !ok {
		t.Error("rule for doctor should not affect the patient's evaluator")
	}
}

// TestRemovedCellReadsCold: cells are keyed by node ordinal, which is
// never reused. After a granted node is removed and a new node is inserted
// at the same position — where the labeling scheme re-issues the removed
// node's identifier — the permissions evaluated before the change read
// the new node as holding nothing, with no scrub of the removed cell, and
// rescoring it yields exactly what a fresh evaluation grants.
func TestRemovedCellReadsCold(t *testing.T) {
	d, h, p := nodeevalEnv(t)
	pm, err := p.Evaluate(d, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	diag := d.RootElement().Children()[0].Children()[1] // franck's diagnosis
	old := diag.FirstChild()
	if pm.Mask(old) == 0 {
		t.Fatal("the doctor should hold privileges on the diagnosis text")
	}
	next := d.Clone() // the change lands on a new generation, as in core
	nd := next.NodeByID(diag.IDString())
	if err := next.Remove(nd.FirstChild()); err != nil {
		t.Fatal(err)
	}
	fresh, err := next.AppendChild(nd, xmltree.KindText, "angina")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.IDString() != old.IDString() {
		t.Fatalf("the scheme did not re-issue %s (got %s); the test needs a re-issued identifier", old.IDString(), fresh.IDString())
	}
	if fresh.Ord() == old.Ord() {
		t.Fatalf("ordinal %d reused", old.Ord())
	}
	if got := pm.Mask(fresh); got != 0 {
		t.Errorf("new node reads %08b from the removed node's cell, want no privilege", got)
	}
	ne, ok := p.NodeEvaluator(h, "laporte")
	if !ok {
		t.Fatal("not matchable")
	}
	patched := pm.Clone()
	if err := ne.Rescore(patched, fresh); err != nil {
		t.Fatal(err)
	}
	want, err := p.Evaluate(next, h, "laporte")
	if err != nil {
		t.Fatal(err)
	}
	if patched.Mask(fresh) != want.Mask(fresh) || pm.Mask(fresh) != 0 {
		t.Errorf("rescored %08b, fresh evaluation %08b, original %08b", patched.Mask(fresh), want.Mask(fresh), pm.Mask(fresh))
	}
}

// TestPermsCloneCopiesOnlyOverlay: a Clone shares the base and copies
// only the overlay. Patching the clone never writes the base or the
// original, a cell equal to the base's leaves no overlay entry, and an
// overlay past 1/overlayFlattenDiv of the base is folded into a private
// copy of it, extended to the overlay's largest ordinal.
func TestPermsCloneCopiesOnlyOverlay(t *testing.T) {
	const read = 1 << uint(Read)
	base := make([]uint8, 4*overlayFlattenDiv)
	for i := range base {
		base[i] = read
	}
	const late = 1000 // an ordinal past the base: a node created later
	orig := &Perms{grants: base, overlay: map[uint32]uint8{late: 1}, shared: true}
	c := orig.Clone()
	c.set(0, 0)
	c.set(1, read) // equals the base cell
	if len(c.overlay) != 2 || c.cell(0) != 0 || c.cell(late) != 1 {
		t.Fatalf("clone overlay = %v, want %d and a cleared 0", c.overlay, late)
	}
	if orig.cell(0) != read || len(orig.overlay) != 1 {
		t.Fatalf("patching the clone changed the original: overlay %v", orig.overlay)
	}
	c.set(2, 0)
	c.set(3, 0) // four overlay cells: at the bound
	if c.overlay == nil || !c.shared {
		t.Fatal("overlay flattened before it passed the bound")
	}
	c.set(4, 0)
	if c.overlay != nil || c.shared || len(c.grants) != late+1 || c.cell(late) != 1 || c.cell(4) != 0 || c.cell(5) != read {
		t.Fatalf("after passing the bound: overlay %v, shared %v, %d cells", c.overlay, c.shared, len(c.grants))
	}
	if len(base) != 4*overlayFlattenDiv || base[0] != read {
		t.Fatal("flattening wrote the shared base")
	}
}
