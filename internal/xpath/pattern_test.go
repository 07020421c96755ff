package xpath

import "testing"

func patOf(t *testing.T, src string) *Pattern {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return c.Pattern()
}

func TestPatternExactFragment(t *testing.T) {
	cases := []struct {
		src   string
		want  string
		exact bool
	}{
		{"/", "/", true},
		{"/patients", "/patients", true},
		{"/patients/*", "/patients/*", true},
		{"//diagnosis", "//diagnosis", true},
		{"//diagnosis/node()", "//diagnosis/node()", true},
		{"/a//b/c", "/a//b/c", true},
		{"/a/@id", "/a/@id", true},
		{"/a/@*", "/a/@*", true},
		{"/a/text()", "/a/text()", true},
		{"/a/comment()", "/a/comment()", true},
		{"/a | /b", "/a | /b", true},
		{"/descendant-or-self::node()", "/ | //node()", true},
		// //node() expands to descendant-or-self::node()/child::node(),
		// which never selects the document node itself.
		{"//node()", "//node()", true},
		{"/descendant::rec", "//rec", true},
	}
	for _, tc := range cases {
		p := patOf(t, tc.src)
		if got := p.String(); got != tc.want {
			t.Errorf("Pattern(%q) = %q, want %q", tc.src, got, tc.want)
		}
		if p.Exact != tc.exact {
			t.Errorf("Pattern(%q).Exact = %v, want %v", tc.src, p.Exact, tc.exact)
		}
	}
}

func TestPatternApproximations(t *testing.T) {
	for _, src := range []string{
		"/patients/*[name() = $USER]",
		"/patients/*[name() = $USER]/descendant-or-self::node()",
		"/a/parent::b",
		"/a/ancestor::node()",
		"/a/following-sibling::b",
		"count(/a)",
		"$USER",
	} {
		p := patOf(t, src)
		if p.Exact {
			t.Errorf("Pattern(%q) claims exactness", src)
		}
		if len(p.Alts) == 0 {
			t.Errorf("Pattern(%q) is empty; over-approximations must stay satisfiable", src)
		}
	}
}

func TestPatternPredicateKeepsShape(t *testing.T) {
	// Predicates widen the pattern only by dropping the filter: the step
	// skeleton must survive.
	p := patOf(t, "/patients/*[name() = $USER]")
	if got, want := p.String(), "/patients/* (approx)"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestPatternEmpty(t *testing.T) {
	// attribute::text() can never select a node.
	p := patOf(t, "/a/attribute::text()")
	if len(p.Alts) != 0 {
		t.Errorf("Pattern(/a/attribute::text()) = %s, want empty", p)
	}
}

// matchesRoot reports whether the pattern can match the document node
// itself (an alternative of zero steps).
func matchesRoot(p *Pattern) bool {
	for _, alt := range p.Alts {
		if len(alt) == 0 {
			return true
		}
	}
	return false
}

func TestPatternMatchesRoot(t *testing.T) {
	if !matchesRoot(patOf(t, "/")) {
		t.Error("/ must match root")
	}
	if !matchesRoot(patOf(t, "/descendant-or-self::node()")) {
		t.Error("/descendant-or-self::node() must match root")
	}
	if matchesRoot(patOf(t, "/patients")) {
		t.Error("/patients must not match root")
	}
}

func TestPatternReverseAxisIsUniversal(t *testing.T) {
	p := patOf(t, "/a/b/parent::node()")
	if !matchesRoot(p) {
		t.Error("reverse-axis over-approximation must include the root")
	}
	if p.Exact {
		t.Error("reverse-axis abstraction cannot be exact")
	}
}
