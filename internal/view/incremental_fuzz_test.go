package view

import (
	"fmt"
	"strings"
	"testing"

	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xupdate"
)

// fuzzPathTo builds a positional path addressing exactly n (mirrors the
// workload generator's scheme).
func fuzzPathTo(n *xmltree.Node) string {
	var segs []string
	for c := n; c.Parent() != nil; c = c.Parent() {
		p := c.Parent()
		if c.Kind() == xmltree.KindAttribute {
			for i, a := range p.Attributes() {
				if a == c {
					segs = append(segs, fmt.Sprintf("attribute::node()[%d]", i+1))
					break
				}
			}
			continue
		}
		segs = append(segs, fmt.Sprintf("node()[%d]", p.ChildIndex(c)+1))
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return "/" + strings.Join(segs, "/")
}

var fuzzLabels = []string{"diagnosis", "service", "record", "p0", "p1", "RESTRICTED", "x"}

// fuzzOp decodes one byte pair into an executable op against the live
// document, or nil when the combination is not constructible.
func fuzzOp(d *xmltree.Document, kindB, targetB byte) *xupdate.Op {
	nodes := d.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	target := nodes[int(targetB)%len(nodes)]
	kind := xupdate.Kind(int(kindB) % 6)
	var arg string
	switch kind {
	case xupdate.Update, xupdate.Rename:
		arg = fuzzLabels[int(targetB)%len(fuzzLabels)]
	case xupdate.Append, xupdate.InsertBefore, xupdate.InsertAfter:
		// Single top node, so a failed graft leaves the document unchanged.
		arg = fmt.Sprintf("<rec><v>f%d</v></rec>", int(kindB)+int(targetB))
	case xupdate.Remove:
		arg = ""
	}
	op, err := xupdate.NewOp(kind, fuzzPathTo(target), arg)
	if err != nil {
		return nil
	}
	return op
}

// FuzzIncrementalView drives byte-pair-decoded XUpdate ops over a small
// hospital document and checks that the incrementally maintained views of
// a staff user, an epidemiologist and a patient equal a fresh Materialize
// (full-rebuild oracle): after every op in eager mode; in lagging mode the
// permissions are patched and checked after every op and the view catches
// up once over the whole chain at the end.
func FuzzIncrementalView(f *testing.F) {
	seeds := [][]byte{
		{0, 3, 1, 7},                         // update + rename
		{5, 9, 2, 4, 3, 2},                   // remove + append + insert
		{1, 2, 1, 2, 5, 2},                   // rename twice then remove
		{2, 0, 4, 1, 0, 250, 1, 128, 5, 5},   // doc-node and high-index targets
		{1, 6, 1, 6, 1, 6, 5, 6, 2, 6, 3, 6}, // hammer one node
	}
	for _, lagging := range []bool{false, true} {
		for _, script := range seeds {
			f.Add(script, lagging)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte, lagging bool) {
		if len(script) > 64 {
			script = script[:64]
		}
		d, err := workload.Hospital(workload.HospitalConfig{Patients: 3, RecordsPerPatient: 1, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		h, err := workload.HospitalHierarchy(3)
		if err != nil {
			t.Fatal(err)
		}
		p, err := workload.HospitalPolicy(h)
		if err != nil {
			t.Fatal(err)
		}
		users := []string{"beaufort", "richard", "p0"}
		states := initStates(t, d, h, p)
		chains := make(map[string][][]xupdate.Delta)
		for i := 0; i+1 < len(script); i += 2 {
			op := fuzzOp(d, script[i], script[i+1])
			if op == nil {
				continue
			}
			res, err := xupdate.Execute(d, op, nil)
			if err != nil {
				// Structurally impossible (e.g. second root); single-top
				// fragments leave the document unchanged on error.
				continue
			}
			for _, u := range users {
				s := states[u]
				var diff string
				if lagging {
					chain := chains[u]
					diff, err = lagStep(d, h, p, u, s, &chain, res.Deltas)
					chains[u] = chain
				} else {
					if err := s.m.Apply(s.v, d, s.pm, res.Deltas); err != nil {
						t.Fatalf("pair %d user %s: apply: %v", i/2, u, err)
					}
					diff, err = diffCheck(d, h, p, u, s)
				}
				if err != nil {
					t.Fatal(err)
				}
				if diff != "" {
					t.Fatalf("pair %d (%s %s) user %s: %s", i/2, op.Kind, op.Select, u, diff)
				}
			}
		}
		if !lagging {
			return
		}
		for _, u := range users {
			s := states[u]
			if err := catchUp(d, s, chains[u]); err != nil {
				t.Fatalf("user %s: view catch-up over %d batches: %v", u, len(chains[u]), err)
			}
			diff, err := diffCheck(d, h, p, u, s)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatalf("user %s after the view catch-up over %d batches: %s", u, len(chains[u]), diff)
			}
		}
	})
}
