// Experiment B12 (EXPERIMENTS.md): shared-scan cold evaluation vs the
// reference per-rule path. A fleet of users starts cold on the hospital
// document; the reference path runs policy.Evaluate per user (one
// full-document Select per applicable rule), the shared path runs
// policy.EvaluateShared against one fresh RuleCache per repetition (bank
// walk for chain-only rules, cross-user cache for $USER-independent ones,
// cache fill cost included). Both paths are verified cell-for-cell before
// timing. Rows are emitted as BENCH_b12.json.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"securexml/internal/policy"
	"securexml/internal/subject"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
)

const b12Schema = "securexml/bench-b12/v1"

type b12Row struct {
	Patients        int     `json:"patients"`
	Nodes           int     `json:"nodes"`
	Rules           int     `json:"rules"`
	Mix             string  `json:"mix"`
	Users           int     `json:"users"`
	RefNsPerUser    float64 `json:"ref_ns_per_user"`
	SharedNsPerUser float64 `json:"shared_ns_per_user"`
	Speedup         float64 `json:"speedup"`
}

type b12Report struct {
	Schema string   `json:"schema"`
	Quick  bool     `json:"quick"`
	Rows   []b12Row `json:"rows"`
}

// b12Env builds the hospital environment with five extra staff users on
// top of the three built-ins, so the "staff" mix has an 8-user cold fleet
// whose paper-policy rules are all $USER-independent.
func b12Env(patients, extraRules int, seed int64) (*xmltree.Document, *subject.Hierarchy, *policy.Policy, error) {
	d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := workload.HospitalHierarchy(patients)
	if err != nil {
		return nil, nil, nil, err
	}
	extra := []struct{ user, role string }{
		{"s1", "secretary"}, {"s2", "secretary"},
		{"d1", "doctor"}, {"d2", "doctor"},
		{"e1", "epidemiologist"},
	}
	for _, e := range extra {
		if err := h.AddUser(e.user, e.role); err != nil {
			return nil, nil, nil, err
		}
	}
	var p *policy.Policy
	if extraRules > 0 {
		p, err = workload.ScaledPolicy(h, extraRules)
	} else {
		p, err = workload.HospitalPolicy(h)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return d, h, p, nil
}

// b12Users returns the cold fleet for a mix.
func b12Users(mix string, patients int) []string {
	staff := []string{"beaufort", "laporte", "richard", "s1", "s2", "d1", "d2", "e1"}
	switch mix {
	case "staff":
		return staff
	case "patients":
		users := make([]string, 0, 8)
		for i := 0; i < 8 && i < patients; i++ {
			users = append(users, fmt.Sprintf("p%d", i))
		}
		return users
	default: // mixed
		users := append([]string(nil), staff[:4]...)
		for i := 0; i < 4 && i < patients; i++ {
			users = append(users, fmt.Sprintf("p%d", i))
		}
		return users
	}
}

// b12Verify pins shared == reference cell-for-cell (every node × privilege
// × user) before anything is timed.
func b12Verify(d *xmltree.Document, h *subject.Hierarchy, p *policy.Policy, users []string) error {
	cache := policy.NewRuleCache()
	for _, u := range users {
		ref, err := p.Evaluate(d, h, u)
		if err != nil {
			return err
		}
		got, err := p.EvaluateShared(d, h, u, cache)
		if err != nil {
			return err
		}
		for _, n := range d.Nodes() {
			id := n.IDString()
			for _, priv := range policy.Privileges {
				if ref.HasID(id, priv) != got.HasID(id, priv) {
					return fmt.Errorf("user %s node %s priv %s: shared diverges from reference", u, id, priv)
				}
			}
		}
	}
	return nil
}

func b12Run(patients, extraRules int, mix string, reps int) (b12Row, error) {
	row := b12Row{Patients: patients, Mix: mix}
	d, h, p, err := b12Env(patients, extraRules, 1)
	if err != nil {
		return row, err
	}
	row.Nodes = d.Len()
	row.Rules = p.Len()
	users := b12Users(mix, patients)
	row.Users = len(users)
	if err := b12Verify(d, h, p, users); err != nil {
		return row, err
	}
	var refTotal, sharedTotal time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for _, u := range users {
			if _, err := p.Evaluate(d, h, u); err != nil {
				return row, err
			}
		}
		refTotal += time.Since(start)

		// A fresh cache per repetition: the fleet starts cold, the first
		// user pays the fill, everyone else merges cached sets.
		cache := policy.NewRuleCache()
		start = time.Now()
		for _, u := range users {
			if _, err := p.EvaluateShared(d, h, u, cache); err != nil {
				return row, err
			}
		}
		sharedTotal += time.Since(start)
	}
	perUser := float64(reps * len(users))
	row.RefNsPerUser = float64(refTotal.Nanoseconds()) / perUser
	row.SharedNsPerUser = float64(sharedTotal.Nanoseconds()) / perUser
	if row.SharedNsPerUser > 0 {
		row.Speedup = row.RefNsPerUser / row.SharedNsPerUser
	}
	return row, nil
}

func b12SharedScan() error {
	header("B12 — cold policy evaluation: shared scan + rule cache vs per-rule reference")
	sizes := []int{100, 1000}
	reps := 5
	if quick {
		sizes = []int{100}
		reps = 2
	}
	ruleSets := []int{0, 20} // extra rules on top of the 12-rule paper policy
	mixes := []string{"staff", "patients", "mixed"}
	rep := b12Report{Schema: b12Schema, Quick: quick}
	fmt.Printf("%10s %10s %7s %10s %7s %14s %14s %9s\n",
		"patients", "nodes", "rules", "mix", "users", "ref/user", "shared/user", "speedup")
	for _, n := range sizes {
		for _, extra := range ruleSets {
			for _, mix := range mixes {
				row, err := b12Run(n, extra, mix, reps)
				if err != nil {
					return err
				}
				rep.Rows = append(rep.Rows, row)
				fmt.Printf("%10d %10d %7d %10s %7d %14s %14s %8.1fx\n",
					row.Patients, row.Nodes, row.Rules, row.Mix, row.Users,
					time.Duration(row.RefNsPerUser), time.Duration(row.SharedNsPerUser), row.Speedup)
			}
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(b12Out, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", b12Out)
	fmt.Println("Expected shape: staff fleets amortize to ~one document scan (all rules")
	fmt.Println("$USER-independent), so speedup grows with fleet size and rule count;")
	fmt.Println("patient fleets bound the win at the $USER-dependent remainder.")
	return nil
}

// validateB12Report checks an emitted B12 report against its schema: every
// row must carry positive sizes and timings, and the mix/user combinations
// must be internally consistent.
func validateB12Report(path string) (*b12Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep b12Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != b12Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, b12Schema)
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	for i, r := range rep.Rows {
		switch {
		case r.Patients <= 0 || r.Nodes <= 0 || r.Rules <= 0 || r.Users <= 0:
			return nil, fmt.Errorf("%s: row %d: non-positive size fields", path, i)
		case r.RefNsPerUser <= 0 || r.SharedNsPerUser <= 0 || r.Speedup <= 0:
			return nil, fmt.Errorf("%s: row %d: non-positive timings", path, i)
		case r.Mix != "staff" && r.Mix != "patients" && r.Mix != "mixed":
			return nil, fmt.Errorf("%s: row %d: unknown mix %q", path, i, r.Mix)
		}
	}
	return &rep, nil
}
