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
// hospital document and checks, for a staff user, an epidemiologist and a
// patient, that the incrementally patched permissions equal a fresh
// Evaluate and render through the permission filter the bytes of a fresh
// Materialize (full-rebuild oracle): after every op in eager mode; in
// lagging mode once, after one patch over the whole chain of batches.
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
		var chain [][]string
		check := func(what string, batches [][]string) {
			t.Helper()
			for _, u := range users {
				s := states[u]
				if err := patch(d, s, batches); err != nil {
					t.Fatalf("%s user %s: patch over %d batches: %v", what, u, len(batches), err)
				}
				diff, err := diffCheck(d, h, p, u, s)
				if err != nil {
					t.Fatal(err)
				}
				if diff != "" {
					t.Fatalf("%s user %s: %s", what, u, diff)
				}
			}
		}
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
			if lagging {
				chain = append(chain, res.Touched)
				continue
			}
			check(fmt.Sprintf("pair %d (%s %s)", i/2, op.Kind, op.Select), [][]string{res.Touched})
		}
		if lagging {
			check(fmt.Sprintf("after %d batches", len(chain)), chain)
		}
	})
}
