// Package subject implements the subject hierarchy of §4.2: subjects are
// roles (internal nodes) and users (leaves), related by the isa relation.
// The reflexive-transitive closure of isa (axioms 11 and 12) determines
// which security rules apply to a session user: a rule granted to subject s'
// applies to s whenever isa(s, s').
package subject

import (
	"errors"
	"fmt"
	"sort"
)

// Kind distinguishes roles from users.
type Kind int

// Subject kinds.
const (
	Role Kind = iota
	User
)

// String returns the kind name.
func (k Kind) String() string {
	if k == User {
		return "user"
	}
	return "role"
}

// Errors returned by hierarchy mutations.
var (
	ErrUnknownSubject   = errors.New("subject: unknown subject")
	ErrDuplicateSubject = errors.New("subject: subject already exists")
	ErrCycle            = errors.New("subject: isa edge would create a cycle")
	ErrUserParent       = errors.New("subject: a user cannot be the parent of another subject")
)

// Hierarchy is a mutable subject hierarchy: a DAG of roles with users at the
// leaves. Create one with NewHierarchy.
//
// The subjects live in a persistent two-level trie keyed by a hash of the
// name, so that Clone costs O(1) and a write O(change): a clone shares the
// whole trie, and a write copies the path to the one leaf it changes (the
// root, one branch, one leaf) instead of writing any node in place. No node
// reachable from a hierarchy is ever written, so Clone only reads its
// source, and any number of goroutines may clone one hierarchy that nobody
// mutates.
type Hierarchy struct {
	root *[fanout]*branch // nil while empty
}

// fanout is the width of the root and of each branch: fanout² leaves.
const fanout = 64

// branch is one second-level trie node; each leaf holds the subjects whose
// name hashes to it.
type branch [fanout][]item

// item is one subject: its name, its kind and its direct isa parents.
type item struct {
	name    string
	kind    Kind
	parents []string
}

// NewHierarchy returns an empty hierarchy.
func NewHierarchy() *Hierarchy { return &Hierarchy{} }

// slot returns the root and branch indexes of name's leaf, from its 32-bit
// FNV-1a hash.
func slot(name string) (hi, lo int) {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h>>6) % fanout, int(h) % fanout
}

// get returns the subject named name.
func (h *Hierarchy) get(name string) (item, bool) {
	if h.root == nil {
		return item{}, false
	}
	hi, lo := slot(name)
	if b := h.root[hi]; b != nil {
		for _, it := range b[lo] {
			if it.name == name {
				return it, true
			}
		}
	}
	return item{}, false
}

// put stores it, adding or replacing the subject of that name, by copying
// the path to its leaf.
func (h *Hierarchy) put(it item) {
	hi, lo := slot(it.name)
	root := new([fanout]*branch)
	if h.root != nil {
		*root = *h.root
	}
	b := new(branch)
	if root[hi] != nil {
		*b = *root[hi]
	}
	leaf := make([]item, 0, len(b[lo])+1)
	for _, old := range b[lo] {
		if old.name != it.name {
			leaf = append(leaf, old)
		}
	}
	b[lo] = append(leaf, it)
	root[hi] = b
	h.root = root
}

// each calls fn for every subject, in no particular order.
func (h *Hierarchy) each(fn func(it item)) {
	if h.root == nil {
		return
	}
	for _, b := range h.root {
		if b == nil {
			continue
		}
		for _, leaf := range b {
			for _, it := range leaf {
				fn(it)
			}
		}
	}
}

// AddRole declares a role, optionally under parent roles (isa edges).
func (h *Hierarchy) AddRole(name string, parents ...string) error {
	return h.add(name, Role, parents)
}

// AddUser declares a user belonging to the given roles.
func (h *Hierarchy) AddUser(name string, roles ...string) error {
	return h.add(name, User, roles)
}

func (h *Hierarchy) add(name string, kind Kind, parents []string) error {
	if name == "" {
		return errors.New("subject: empty subject name")
	}
	if h.Exists(name) {
		return fmt.Errorf("%w: %q", ErrDuplicateSubject, name)
	}
	for _, p := range parents {
		pe, ok := h.get(p)
		if !ok {
			return fmt.Errorf("%w: parent %q of %q", ErrUnknownSubject, p, name)
		}
		if pe.kind == User {
			return fmt.Errorf("%w: %q under user %q", ErrUserParent, name, p)
		}
	}
	h.put(item{name: name, kind: kind, parents: append([]string(nil), parents...)})
	return nil
}

// AddISA adds an isa edge from child to parent after both exist. It rejects
// edges that would create a cycle (the closure must stay a partial order).
func (h *Hierarchy) AddISA(child, parent string) error {
	ce, ok := h.get(child)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSubject, child)
	}
	pe, ok := h.get(parent)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSubject, parent)
	}
	if pe.kind == User {
		return fmt.Errorf("%w: %q under user %q", ErrUserParent, child, parent)
	}
	if child == parent || h.ISA(parent, child) {
		return fmt.Errorf("%w: isa(%s, %s)", ErrCycle, child, parent)
	}
	for _, p := range ce.parents {
		if p == parent {
			return nil // idempotent
		}
	}
	ce.parents = append(ce.parents[:len(ce.parents):len(ce.parents)], parent)
	h.put(ce)
	return nil
}

// Exists reports whether name is a declared subject.
func (h *Hierarchy) Exists(name string) bool {
	_, ok := h.get(name)
	return ok
}

// KindOf returns the kind of a subject; ok is false for unknown names.
func (h *Hierarchy) KindOf(name string) (Kind, bool) {
	e, ok := h.get(name)
	return e.kind, ok
}

// ISA implements the reflexive-transitive closure of axioms 11 and 12:
// it reports whether subject s "is a" subject target. Unknown subjects are
// related to nothing (closed world).
func (h *Hierarchy) ISA(s, target string) bool {
	se, ok := h.get(s)
	if !ok || !h.Exists(target) {
		return false
	}
	if s == target {
		return true // axiom 11: reflexivity
	}
	// Axiom 12: transitivity, via upward search.
	seen := map[string]bool{s: true}
	stack := append([]string(nil), se.parents...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		e, _ := h.get(cur)
		stack = append(stack, e.parents...)
	}
	return false
}

// Ancestors returns every subject s' with isa(s, s'), including s itself,
// sorted by name. It is the set of subjects whose rules apply to s.
func (h *Hierarchy) Ancestors(s string) []string {
	if !h.Exists(s) {
		return nil
	}
	seen := map[string]bool{}
	var visit func(string)
	visit = func(cur string) {
		if seen[cur] {
			return
		}
		seen[cur] = true
		e, _ := h.get(cur)
		for _, p := range e.parents {
			visit(p)
		}
	}
	visit(s)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parents returns the direct isa parents of s.
func (h *Hierarchy) Parents(s string) []string {
	e, _ := h.get(s)
	return append([]string(nil), e.parents...)
}

// Members returns every subject s with isa(s, role), including the role
// itself, sorted by name — the downward closure.
func (h *Hierarchy) Members(role string) []string {
	if !h.Exists(role) {
		return nil
	}
	var out []string
	h.each(func(it item) {
		if h.ISA(it.name, role) {
			out = append(out, it.name)
		}
	})
	sort.Strings(out)
	return out
}

// Users returns all declared users, sorted by name.
func (h *Hierarchy) Users() []string { return h.byKind(User) }

// Roles returns all declared roles, sorted by name.
func (h *Hierarchy) Roles() []string { return h.byKind(Role) }

func (h *Hierarchy) byKind(k Kind) []string {
	var out []string
	h.each(func(it item) {
		if it.kind == k {
			out = append(out, it.name)
		}
	})
	sort.Strings(out)
	return out
}

// Clone returns an independent copy of the hierarchy in O(1): the copy
// shares h's trie, which neither side ever writes in place.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{root: h.root}
}

// Facts enumerates the subject(s) and direct isa(s, s') facts — the sets S
// of axiom 10 — for the logic reference model.
func (h *Hierarchy) Facts() (subjects []string, isa [][2]string) {
	subjects = []string{}
	h.each(func(it item) { subjects = append(subjects, it.name) })
	sort.Strings(subjects)
	for _, s := range subjects {
		e, _ := h.get(s)
		for _, p := range e.parents {
			isa = append(isa, [2]string{s, p})
		}
	}
	return subjects, isa
}

// PaperHierarchy builds the Fig. 3 hierarchy: roles staff, secretary,
// doctor, epidemiologist, patient; users beaufort (secretary), laporte
// (doctor), richard (epidemiologist), robert and franck (patients).
func PaperHierarchy() *Hierarchy {
	h := NewHierarchy()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(h.AddRole("staff"))
	must(h.AddRole("secretary", "staff"))
	must(h.AddRole("doctor", "staff"))
	must(h.AddRole("epidemiologist", "staff"))
	must(h.AddRole("patient"))
	must(h.AddUser("beaufort", "secretary"))
	must(h.AddUser("laporte", "doctor"))
	must(h.AddUser("richard", "epidemiologist"))
	must(h.AddUser("robert", "patient"))
	must(h.AddUser("franck", "patient"))
	return h
}
