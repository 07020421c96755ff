package datalog

import "testing"

// FuzzParse checks the Datalog text parser never panics, and that accepted
// programs render back to parseable text.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"p(a).",
		"p(X) :- q(X).",
		"p(X) :- q(X), not r(X).",
		`p("quoted \" string").`,
		"p(a) :- q(a), gt(1, 2).",
		"% comment only",
		"p(a). q(b). r(X, Y) :- p(X), q(Y).",
		"p(", ":-", "p(a)", "p(a) :-", "not p(a).", `p(").`, "p(a))).",
		"p(a,b,c,d,e,f,g,h).",
		`0("."):-0.`, `0("_x"):-0.`, `p("a\\b", "\"").`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		for _, r := range e.Rules() {
			again, err := Parse(r.String())
			if err != nil {
				t.Fatalf("accepted rule %q does not reparse: %v", r.String(), err)
			}
			// Printing is a fixed point: a constant must not read back as
			// a variable or as another constant.
			if rs := again.Rules(); len(rs) != 1 || rs[0].String() != r.String() {
				t.Fatalf("rule %q reparses as %v", r.String(), rs)
			}
		}
		// Tiny programs must also evaluate without panicking (they may
		// legitimately fail stratification).
		_, _ = e.Run()
	})
}
