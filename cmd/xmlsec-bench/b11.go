// Experiment B11 (EXPERIMENTS.md): incremental permission maintenance vs
// full re-evaluation. An administrator streams secured single-target
// XUpdate ops over the hospital document; after every applied op each
// staff user's axiom-14 permissions are patched over the op's touched
// subtree roots by policy.NodeEvaluator.PatchCtx and, separately,
// re-derived from scratch (policy.Evaluate). Both paths are timed per op per user and the patched
// permissions are verified cell-for-cell against the re-derivation. The
// permissions are all a session keeps: its view is rendered from them
// through the permission filter. Rows are emitted as BENCH_b11.json.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"securexml/internal/access"
	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
)

const b11Schema = "securexml/bench-b11/v2"

type b11Row struct {
	Patients    int     `json:"patients"`
	Nodes       int     `json:"nodes"`
	Mix         string  `json:"mix"`
	Users       int     `json:"users"`
	Ops         int     `json:"ops"`
	FullNsPerOp float64 `json:"full_ns_per_op"`
	IncNsPerOp  float64 `json:"inc_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	Fallbacks   int     `json:"fallbacks"`
}

type b11Report struct {
	Schema string   `json:"schema"`
	Quick  bool     `json:"quick"`
	Rows   []b11Row `json:"rows"`
}

// b11Env builds the hospital environment plus an administrator who holds
// every privilege on every node, so the secured executor applies the
// generated ops without skips while the maintained users keep the plain
// paper policy.
func b11Env(patients int, seed int64) (*xmltree.Document, *subject.Hierarchy, *policy.Policy, error) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := workload.HospitalHierarchy(patients)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := workload.HospitalPolicy(h)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := h.AddRole("benchadmin"); err != nil {
		return nil, nil, nil, err
	}
	if err := h.AddUser("admin", "benchadmin"); err != nil {
		return nil, nil, nil, err
	}
	for i, priv := range policy.Privileges {
		err := p.Add(h, policy.Rule{
			Effect: policy.Accept, Privilege: priv,
			Path: "/descendant-or-self::node()", Subject: "benchadmin",
			Priority: int64(1000 + i),
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return d, h, p, nil
}

// b11State is one maintained user: the incrementally patched permissions
// and the node evaluator that patches them.
type b11State struct {
	user string
	pm   *policy.Perms
	ne   *policy.NodeEvaluator
}

func b11Mix(name string) workload.OpWeights {
	switch name {
	case "update-text":
		return workload.OpWeights{Update: 1}
	case "rename":
		return workload.OpWeights{Rename: 1}
	case "append":
		return workload.OpWeights{Append: 1}
	case "remove":
		return workload.OpWeights{Remove: 1}
	default:
		return workload.DefaultOpWeights
	}
}

func b11Run(patients, ops int, mix string) (b11Row, error) {
	row := b11Row{Patients: patients, Mix: mix, Ops: ops}
	d, h, p, err := b11Env(patients, 1)
	if err != nil {
		return row, err
	}
	row.Nodes = d.Len()

	users := []string{"beaufort", "laporte", "richard"}
	row.Users = len(users)
	states := make([]*b11State, 0, len(users))
	for _, u := range users {
		pm, err := p.Evaluate(d, h, u)
		if err != nil {
			return row, err
		}
		ne, ok := p.NodeEvaluator(h, u)
		if !ok {
			return row, fmt.Errorf("user %s: hospital policy is not chain-only", u)
		}
		states = append(states, &b11State{user: u, pm: pm, ne: ne})
	}

	stream := workload.OpStream(workload.OpConfig{Doc: d, Seed: 1, Weights: b11Mix(mix)})
	var incTotal, fullTotal time.Duration
	for i := 0; i < ops; i++ {
		op, err := stream.Next()
		if err != nil {
			return row, err
		}
		res, _, err := access.Execute(d, h, p, "admin", op)
		if err != nil {
			return row, fmt.Errorf("op %d (%s %s): %w", i, op.Kind, op.Select, err)
		}
		for _, st := range states {
			start := time.Now()
			patched, patchErr := st.ne.PatchCtx(context.Background(), d, st.pm, [][]string{res.Touched})
			incTotal += time.Since(start)

			start = time.Now()
			fresh, err := p.Evaluate(d, h, st.user)
			if err != nil {
				return row, err
			}
			fullTotal += time.Since(start)

			if patchErr != nil {
				// Fall back exactly as core does: re-derive the permissions.
				row.Fallbacks++
				st.pm = fresh
				continue
			}
			for _, n := range d.Nodes() {
				if patched.Mask(n) != fresh.Mask(n) {
					return row, fmt.Errorf("op %d (%s %s): user %s: patched cell of %s diverged from re-evaluation",
						i, op.Kind, op.Select, st.user, n.IDString())
				}
			}
			st.pm = patched
		}
	}
	perUserOps := float64(ops * len(users))
	row.FullNsPerOp = float64(fullTotal.Nanoseconds()) / perUserOps
	row.IncNsPerOp = float64(incTotal.Nanoseconds()) / perUserOps
	if row.IncNsPerOp > 0 {
		row.Speedup = row.FullNsPerOp / row.IncNsPerOp
	}
	return row, nil
}

func b11IncrementalMaintenance() error {
	header("B11 — incremental permission maintenance vs full re-evaluation")
	sizes := []int{100, 1000, 5000}
	ops := 40
	if quick {
		sizes = []int{100, 1000}
		ops = 20
	}
	mixes := []string{"update-text", "rename", "append", "remove", "mixed"}
	rep := b11Report{Schema: b11Schema, Quick: quick}
	fmt.Printf("%10s %10s %14s %7s %6s %14s %14s %9s %10s\n",
		"patients", "nodes", "mix", "users", "ops", "full/op", "inc/op", "speedup", "fallbacks")
	for _, n := range sizes {
		for _, mix := range mixes {
			row, err := b11Run(n, ops, mix)
			if err != nil {
				return err
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("%10d %10d %14s %7d %6d %14s %14s %8.1fx %10d\n",
				row.Patients, row.Nodes, row.Mix, row.Users, row.Ops,
				time.Duration(row.FullNsPerOp), time.Duration(row.IncNsPerOp),
				row.Speedup, row.Fallbacks)
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(b11Out, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", b11Out)
	fmt.Println("Expected shape: re-evaluation scales with document size; the patch cost")
	fmt.Println("scales with the touched subtree, so the speedup grows with the document.")
	return nil
}
