package xmltree

import (
	"errors"
	"testing"
)

func buildFreezeDoc(t *testing.T) *Document {
	t.Helper()
	d := New(nil)
	root, err := d.AppendChild(d.Root(), KindElement, "hospital")
	if err != nil {
		t.Fatalf("root: %v", err)
	}
	svc, err := d.AppendChild(root, KindElement, "service")
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	if _, err := d.SetAttribute(svc, "name", "cardiology"); err != nil {
		t.Fatalf("attr: %v", err)
	}
	if _, err := d.AppendChild(svc, KindText, "ward 3"); err != nil {
		t.Fatalf("text: %v", err)
	}
	return d
}

func TestFreezeRejectsEveryMutation(t *testing.T) {
	d := buildFreezeDoc(t)
	svc := d.ElementsByName("service")[0]
	ver := d.Version()
	d.Freeze()
	if !d.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}

	mutations := map[string]func() error{
		"AppendChild":  func() error { _, err := d.AppendChild(svc, KindElement, "bed"); return err },
		"InsertBefore": func() error { _, err := d.InsertBefore(svc, KindElement, "bed"); return err },
		"InsertAfter":  func() error { _, err := d.InsertAfter(svc, KindElement, "bed"); return err },
		"SetAttribute": func() error { _, err := d.SetAttribute(svc, "name", "x"); return err },
		"Rename":       func() error { return d.Rename(svc, "clinic") },
		"Remove":       func() error { return d.Remove(svc) },
		"Graft": func() error {
			f := NewFragment(nil)
			fn, _ := f.AppendChild(f.Root(), KindElement, "bed")
			_, err := d.Graft(svc, GraftAppend, fn)
			return err
		},
		"MirrorChild": func() error {
			_, err := d.MirrorChild(d.Root(), KindElement, "x", svc.ID())
			return err
		},
	}
	for name, fn := range mutations {
		if err := fn(); !errors.Is(err, ErrFrozen) {
			t.Errorf("%s on frozen doc: err = %v, want ErrFrozen", name, err)
		}
	}
	if d.Version() != ver {
		t.Fatalf("version moved on frozen doc: %d -> %d", ver, d.Version())
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	d := buildFreezeDoc(t)
	d.Freeze()
	c := d.Clone()
	if c.Frozen() {
		t.Fatal("clone of frozen document is frozen")
	}
	if !Equal(d, c) {
		t.Fatal("clone differs from original")
	}
	if c.Version() != d.Version() {
		t.Fatalf("clone version %d != original %d", c.Version(), d.Version())
	}
	svc := c.ElementsByName("service")[0]
	if _, err := c.AppendChild(svc, KindElement, "bed"); err != nil {
		t.Fatalf("mutating clone: %v", err)
	}
	if Equal(d, c) {
		t.Fatal("mutating the clone changed the frozen original")
	}
}

func TestClonePreservesIndexesAndFragment(t *testing.T) {
	d := buildFreezeDoc(t)
	c := d.Clone()
	if c.Len() != d.Len() {
		t.Fatalf("clone Len %d != original %d", c.Len(), d.Len())
	}
	for _, n := range d.Nodes() {
		cn := c.NodeByID(n.IDString())
		if cn == nil {
			t.Fatalf("clone lost node %s", n.ID())
		}
		if cn.Label() != n.Label() || cn.Kind() != n.Kind() {
			t.Fatalf("clone node %s mismatch: %s/%v vs %s/%v",
				n.ID(), cn.Label(), cn.Kind(), n.Label(), n.Kind())
		}
		if cn == n {
			t.Fatalf("clone shares node %s with original", n.ID())
		}
	}
	// Name index survives the clone.
	if got := len(c.ElementsByName("service")); got != 1 {
		t.Fatalf("clone ElementsByName(service) = %d, want 1", got)
	}

	f := NewFragment(nil)
	if _, err := f.AppendChild(f.Root(), KindElement, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AppendChild(f.Root(), KindElement, "b"); err != nil {
		t.Fatal(err)
	}
	fc := f.Clone()
	if !fc.IsFragment() {
		t.Fatal("clone of fragment lost fragment flag")
	}
	// Fragment clones must still accept multiple top-level nodes.
	if _, err := fc.AppendChild(fc.Root(), KindElement, "c"); err != nil {
		t.Fatalf("fragment clone rejects second root: %v", err)
	}
}
