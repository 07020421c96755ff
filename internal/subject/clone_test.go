package subject

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// fuzzNames is the subject pool of FuzzHierarchyClone: 24 names spread
// over the trie, then 8 names that share one leaf with the first, so that
// leaf copies with several subjects, and replacements inside them, occur.
var fuzzNames = func() []string {
	var out []string
	for i := 0; i < 24; i++ {
		out = append(out, fmt.Sprintf("s%d", i))
	}
	hi, lo := slot(out[0])
	for i := 0; len(out) < 32; i++ {
		name := fmt.Sprintf("c%d", i)
		if h, l := slot(name); h == hi && l == lo {
			out = append(out, name)
		}
	}
	return out
}()

// refHierarchy is the naive reference model: two plain maps, mutated in
// place, copied whole.
type refHierarchy struct {
	kinds   map[string]Kind
	parents map[string][]string
}

func newRef() *refHierarchy {
	return &refHierarchy{kinds: map[string]Kind{}, parents: map[string][]string{}}
}

func (r *refHierarchy) clone() *refHierarchy {
	c := newRef()
	for k, v := range r.kinds {
		c.kinds[k] = v
	}
	for k, v := range r.parents {
		c.parents[k] = append([]string(nil), v...)
	}
	return c
}

func (r *refHierarchy) isa(s, target string) bool {
	if _, ok := r.kinds[s]; !ok {
		return false
	}
	if _, ok := r.kinds[target]; !ok {
		return false
	}
	if s == target {
		return true
	}
	for _, p := range r.parents[s] {
		if r.isa(p, target) {
			return true
		}
	}
	return false
}

// add reports whether the reference accepts the new subject.
func (r *refHierarchy) add(name string, kind Kind, parents []string) bool {
	if _, dup := r.kinds[name]; dup {
		return false
	}
	for _, p := range parents {
		if k, ok := r.kinds[p]; !ok || k == User {
			return false
		}
	}
	r.kinds[name] = kind
	r.parents[name] = append([]string(nil), parents...)
	return true
}

// addISA reports whether the reference accepts the edge.
func (r *refHierarchy) addISA(child, parent string) bool {
	if _, ok := r.kinds[child]; !ok {
		return false
	}
	if k, ok := r.kinds[parent]; !ok || k == User || r.isa(parent, child) {
		return false
	}
	for _, p := range r.parents[child] {
		if p == parent {
			return true
		}
	}
	r.parents[child] = append(r.parents[child], parent)
	return true
}

func (r *refHierarchy) sorted(keep func(name string) bool) []string {
	var out []string
	for name := range r.kinds {
		if keep(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// equalRef fails the test unless h answers every query as r does.
func equalRef(t *testing.T, what string, h *Hierarchy, r *refHierarchy) {
	t.Helper()
	same := func(q string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s = %v, want %v", what, q, got, want)
		}
	}
	same("Users", h.Users(), r.sorted(func(n string) bool { return r.kinds[n] == User }))
	same("Roles", h.Roles(), r.sorted(func(n string) bool { return r.kinds[n] == Role }))
	subjects, isa := h.Facts()
	wantISA := [][2]string(nil)
	for _, s := range r.sorted(func(string) bool { return true }) {
		for _, p := range r.parents[s] {
			wantISA = append(wantISA, [2]string{s, p})
		}
	}
	same("Facts subjects", subjects, append([]string{}, r.sorted(func(string) bool { return true })...))
	same("Facts isa", isa, wantISA)
	for _, a := range fuzzNames {
		k, ok := h.KindOf(a)
		wk, wok := r.kinds[a]
		same("KindOf("+a+")", [2]any{k, ok}, [2]any{wk, wok})
		same("Ancestors("+a+")", h.Ancestors(a), func() []string {
			if !wok {
				return nil
			}
			return r.sorted(func(n string) bool { return r.isa(a, n) })
		}())
		same("Members("+a+")", h.Members(a), func() []string {
			if !wok {
				return nil
			}
			return r.sorted(func(n string) bool { return r.isa(n, a) })
		}())
		for _, b := range fuzzNames {
			if got, want := h.ISA(a, b), r.isa(a, b); got != want {
				t.Fatalf("%s: ISA(%s, %s) = %v, want %v", what, a, b, got, want)
			}
		}
	}
}

// FuzzHierarchyClone runs random AddRole, AddUser and AddISA sequences,
// taking clones at random points, against the naive two-map reference.
// After a clone either side may go on being written; at the end every
// earlier hierarchy must still answer exactly as its reference did when
// it was left, so no write reached a hierarchy it did not go to.
func FuzzHierarchyClone(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 2, 1, 2, 25, 0, 3, 0, 0, 0, 26, 1})
	f.Add([]byte{0, 24, 0, 0, 25, 24, 1, 26, 25, 3, 0, 0, 2, 24, 25, 1, 27, 26, 3, 1, 0, 2, 26, 24})
	f.Add([]byte{0, 1, 0, 0, 2, 1, 2, 1, 2, 2, 2, 1, 3, 0, 0, 0, 3, 2, 3, 1, 0, 1, 4, 3, 2, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 240 {
			return
		}
		type pair struct {
			h *Hierarchy
			r *refHierarchy
		}
		cur := pair{NewHierarchy(), newRef()}
		var left []pair
		for i := 0; i+3 <= len(data); i += 3 {
			op, a, b := data[i]%4, fuzzNames[int(data[i+1])%len(fuzzNames)], fuzzNames[int(data[i+2])%len(fuzzNames)]
			var err error
			var ok bool
			switch op {
			case 0:
				var parents []string
				if data[i+2]&0x80 == 0 {
					parents = []string{b}
				}
				err, ok = cur.h.AddRole(a, parents...), cur.r.add(a, Role, parents)
			case 1:
				err, ok = cur.h.AddUser(a, b), cur.r.add(a, User, []string{b})
			case 2:
				err, ok = cur.h.AddISA(a, b), cur.r.addISA(a, b)
			case 3:
				c := pair{cur.h.Clone(), cur.r.clone()}
				if data[i+1]&1 == 0 {
					left, cur = append(left, cur), c
				} else {
					left = append(left, c)
				}
				continue
			}
			if (err == nil) != ok {
				t.Fatalf("op %d on (%s, %s): err %v, reference accepts %v", op, a, b, err, ok)
			}
		}
		equalRef(t, "current", cur.h, cur.r)
		for i, p := range left {
			equalRef(t, fmt.Sprintf("hierarchy %d left behind", i), p.h, p.r)
		}
	})
}
