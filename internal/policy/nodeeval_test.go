package policy

import (
	"fmt"
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
		got := &Perms{user: user, version: d.Version(), grants: make(map[string]uint8)}
		for _, n := range d.Nodes() {
			if err := ne.Rescore(got, n); err != nil {
				t.Fatalf("%s rescore %s: %v", user, n.ID(), err)
			}
		}
		got.flatten() // compare whole maps, overlay folded in
		if len(got.grants) != len(want.grants) {
			t.Errorf("%s: rescore produced %d granted nodes, Evaluate %d", user, len(got.grants), len(want.grants))
		}
		for id, mask := range want.grants {
			if got.grants[id] != mask {
				t.Errorf("%s node %s: rescore mask %08b, Evaluate %08b", user, id, got.grants[id], mask)
			}
		}
		for id := range got.grants {
			if _, ok := want.grants[id]; !ok {
				t.Errorf("%s node %s: rescore granted, Evaluate did not", user, id)
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
	pm := &Perms{user: "richard", grants: map[string]uint8{
		n.ID().String(): 1 << uint(Read), // stale: pretend read was granted
	}}
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
	pmF := &Perms{user: "franck", grants: map[string]uint8{
		txt.ID().String(): 1 << uint(Delete),
	}}
	if err := neF.Rescore(pmF, txt); err != nil {
		t.Fatal(err)
	}
	if stale := pmF.cell(txt.ID().String()); stale != 0 {
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

// TestPermsForget scrubs removed ids.
func TestPermsForget(t *testing.T) {
	pm := &Perms{grants: map[string]uint8{"a": 1, "b": 2, "c": 4}}
	pm.Forget("a", "c", "zzz")
	if pm.cell("a") != 0 {
		t.Error("a survived Forget")
	}
	if pm.cell("c") != 0 {
		t.Error("c survived Forget")
	}
	if pm.cell("b") != 2 {
		t.Error("b damaged by Forget")
	}
	pm.flatten()
	if len(pm.grants) != 1 || pm.grants["b"] != 2 {
		t.Errorf("flattened grants = %v, want only b", pm.grants)
	}
}

// TestPermsCloneCopiesOnlyOverlay: a Clone shares the base map and copies
// only the overlay. Patching the clone never writes the base map or the
// original, a cell equal to the base's leaves no overlay entry, and an
// overlay past 1/overlayFlattenDiv of the base is folded into a private
// copy of it.
func TestPermsCloneCopiesOnlyOverlay(t *testing.T) {
	base := make(map[string]uint8)
	for i := 0; i < 4*overlayFlattenDiv; i++ {
		base[fmt.Sprint(i)] = 1 << uint(Read)
	}
	orig := &Perms{grants: base, overlay: map[string]uint8{"x": 1}, shared: true}
	c := orig.Clone()
	c.Forget("0")
	c.set("1", 1<<uint(Read)) // equals the base cell
	if len(c.overlay) != 2 || c.cell("0") != 0 || c.cell("x") != 1 {
		t.Fatalf("clone overlay = %v, want x and a cleared 0", c.overlay)
	}
	if orig.cell("0") != 1<<uint(Read) || len(orig.overlay) != 1 {
		t.Fatalf("patching the clone changed the original: overlay %v", orig.overlay)
	}
	c.Forget("2", "3") // four overlay cells: at the bound
	if c.overlay == nil || !c.shared {
		t.Fatal("overlay flattened before it passed the bound")
	}
	c.Forget("4")
	if c.overlay != nil || c.shared || len(c.grants) != len(base)-4+1 || c.cell("x") != 1 || c.cell("4") != 0 {
		t.Fatalf("after passing the bound: overlay %v, shared %v, %d grants", c.overlay, c.shared, len(c.grants))
	}
	if len(base) != 4*overlayFlattenDiv || base["0"] != 1<<uint(Read) {
		t.Fatal("flattening wrote the shared base map")
	}
}
