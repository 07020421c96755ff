package view

import (
	"testing"

	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/subject"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

const incXML = `<patients>
  <franck><service>otolaryngology</service><diagnosis>tonsillitis</diagnosis></franck>
  <robert><service>pneumology</service><diagnosis>pneumonia</diagnosis></robert>
</patients>`

func incEnv(t *testing.T) (*xmltree.Document, *subject.Hierarchy, *policy.Policy) {
	t.Helper()
	d, err := xmltree.ParseString(incXML, xmltree.ParseOptions{})
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
	p, err := policy.PaperPolicy(h)
	if err != nil {
		t.Fatal(err)
	}
	return d, h, p
}

// requirePatchedEqual asserts that st's patched permissions equal a
// fresh Evaluate for u and render the fresh Materialize byte for byte.
func requirePatchedEqual(t *testing.T, d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, u string, st *userState, ctx string) {
	t.Helper()
	diff, err := diffCheck(d, h, p, u, st)
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatalf("%s: %s", ctx, diff)
	}
}

// applyOp executes op unsecured on d and patches st over its deltas.
func applyOp(t *testing.T, d *xmltree.Document, st *userState, op *xupdate.Op) {
	t.Helper()
	res, err := xupdate.Execute(d, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) == 0 {
		t.Fatalf("%s %s produced no deltas (selected %d, applied %d)", op.Kind, op.Select, res.Selected, res.Applied)
	}
	if err := patch(d, st, [][]xupdate.Delta{res.Deltas}); err != nil {
		t.Fatal(err)
	}
}

// visibleTo reports whether n appears in the view st's permissions render.
func visibleTo(st *userState, n *xmltree.Node) bool {
	f := qfilter.ForPerms(st.pm)
	for m := n; m != nil; m = m.Parent() {
		if !f.IsVisible(m) {
			return false
		}
	}
	return true
}

// TestMaintainerPaperOps drives each XUpdate kind through the unsecured
// executor and checks, for every user of the paper scenario, the patched
// permissions and the view they render against a fresh Evaluate and
// Materialize.
func TestMaintainerPaperOps(t *testing.T) {
	ops := []struct {
		name string
		op   *xupdate.Op
	}{
		{"rename", mustOp(t, xupdate.Rename, "/patients/franck/diagnosis", "pathology")},
		{"update-text", mustOp(t, xupdate.Update, "/patients/robert/diagnosis", "bronchitis")},
		{"append", mustOp(t, xupdate.Append, "/patients", "<durand><service>cardiology</service><diagnosis>angina</diagnosis></durand>")},
		{"insert-before", mustOp(t, xupdate.InsertBefore, "/patients/robert", "<dupont><diagnosis>flu</diagnosis></dupont>")},
		{"insert-after", mustOp(t, xupdate.InsertAfter, "/patients/franck/service", "<ward>B2</ward>")},
		{"remove", mustOp(t, xupdate.Remove, "/patients/franck/diagnosis", "")},
		{"rename-patient", mustOp(t, xupdate.Rename, "/patients/robert", "benoit")},
	}
	users := []string{"beaufort", "laporte", "richard", "franck", "robert"}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			d, h, p := incEnv(t)
			states := initStates(t, d, h, p)
			res, err := xupdate.Execute(d, tc.op, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Deltas) == 0 {
				t.Fatalf("op produced no deltas (selected %d, applied %d)", res.Selected, res.Applied)
			}
			for _, u := range users {
				st := states[u]
				if err := patch(d, st, [][]xupdate.Delta{res.Deltas}); err != nil {
					t.Fatalf("%s: patch: %v", u, err)
				}
				requirePatchedEqual(t, d, h, p, u, st, u)
			}
		})
	}
}

// TestMaintainerRenameFlipsPatientVisibility: renaming robert's element to
// another name must make robert's whole subtree disappear from robert's
// view (rule 5 matches by name() = $USER) — the hardest relabel case: the
// delta is one node but visibility flips for the entire subtree.
func TestMaintainerRenameFlipsPatientVisibility(t *testing.T) {
	d, h, p := incEnv(t)
	st := initStates(t, d, h, p)["robert"]
	robert := d.RootElement().Children()[1]
	if !visibleTo(st, robert) {
		t.Fatal("robert should see his own element before the rename")
	}
	applyOp(t, d, st, mustOp(t, xupdate.Rename, "/patients/robert", "benoit"))
	if visibleTo(st, robert) {
		t.Error("renamed element still visible to robert")
	}
	requirePatchedEqual(t, d, h, p, "robert", st, "robert after rename")

	// And back: renaming it to robert again restores visibility.
	applyOp(t, d, st, mustOp(t, xupdate.Rename, "/patients/benoit", "robert"))
	requirePatchedEqual(t, d, h, p, "robert", st, "robert after rename back")
	if !visibleTo(st, robert) {
		t.Error("re-renamed element not visible to robert")
	}
}

// TestMaintainerOutOfOrderVisibility: a node becoming visible before an
// already-visible later sibling. Rule 5 matches patients by name, so
// renaming robert to franck gives franck a second, later visible element;
// renaming the first franck away and back then makes a node visible in
// front of it, which the rendering must place in document order.
func TestMaintainerOutOfOrderVisibility(t *testing.T) {
	d, h, p := incEnv(t)
	st := initStates(t, d, h, p)["franck"]
	for _, op := range []*xupdate.Op{
		mustOp(t, xupdate.Rename, "/patients/robert", "franck"),
		mustOp(t, xupdate.Rename, "/patients/*[1]", "someone"),
		mustOp(t, xupdate.Rename, "/patients/*[1]", "franck"),
	} {
		applyOp(t, d, st, op)
		requirePatchedEqual(t, d, h, p, "franck", st, op.Select)
	}
}

// TestSnapshotIndependence: patching returns a copy, so a rendering under
// the permissions a concurrent reader still holds does not change.
func TestSnapshotIndependence(t *testing.T) {
	d, h, p := incEnv(t)
	st := initStates(t, d, h, p)["laporte"]
	held := st.pm
	before := renderFiltered(d, held)
	if want := Materialize(d, held).Doc.XML(); before != want {
		t.Fatalf("rendering differs from Materialize\n got: %s\nwant: %s", before, want)
	}
	applyOp(t, d, st, mustOp(t, xupdate.Rename, "/patients/franck/diagnosis", "pathology"))
	if st.pm == held {
		t.Fatal("patching returned the permissions it was given")
	}
	for _, n := range d.Nodes() {
		if n.Label() == "pathology" {
			if held.Mask(n) == st.pm.Mask(n) {
				t.Fatalf("rename did not change laporte's cells on %s", n.IDString())
			}
		}
	}
	requirePatchedEqual(t, d, h, p, "laporte", st, "laporte after rename")
}

func mustOp(t *testing.T, kind xupdate.Kind, path, arg string) *xupdate.Op {
	t.Helper()
	op, err := xupdate.NewOp(kind, path, arg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}
