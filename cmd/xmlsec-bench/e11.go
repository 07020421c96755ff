// Experiment E11 (EXPERIMENTS.md): repair-engine success rate and analyzer
// throughput over the scenario corpus generator. For each shape at each
// size, a clean corpus pins the analyzer's zero-finding contract and its
// rules/sec; a seeded faulty corpus measures what fraction of repairable
// findings the engine offers a validated repair for and whether Fix
// converges to a clean policy; the clean corpus also stresses
// EvaluateShared/RuleCache with a cold user fleet at corpus scale. Rows
// are emitted as BENCH_e11.json.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"securexml/internal/policy"
	"securexml/internal/policyanalysis"
	"securexml/internal/scenario"
)

const e11Schema = "securexml/bench-e11/v1"

type e11Row struct {
	Shape string `json:"shape"`
	Rules int    `json:"rules"`

	// Clean-corpus analyzer throughput.
	AnalyzeMs   float64 `json:"analyze_ms"`
	RulesPerSec float64 `json:"rules_per_sec"`

	// Faulty-corpus repair metrics.
	Faults      int     `json:"faults"`
	Repairable  int     `json:"repairable_findings"`
	Repaired    int     `json:"repaired_findings"`
	SuccessRate float64 `json:"repair_success_rate"`
	PlanMs      float64 `json:"plan_ms"`
	FixClean    bool    `json:"fix_clean"`

	// Shared-scan stress on the clean corpus.
	StressUsers     int     `json:"stress_users"`
	SharedNsPerUser float64 `json:"shared_ns_per_user"`
}

type e11Report struct {
	Schema string   `json:"schema"`
	Quick  bool     `json:"quick"`
	Rows   []e11Row `json:"rows"`
}

func e11Run(shape string, rules int) (e11Row, error) {
	row := e11Row{Shape: shape}

	clean, err := scenario.GenerateCorpus(scenario.CorpusConfig{Shape: shape, Rules: rules, Seed: 1})
	if err != nil {
		return row, err
	}
	row.Rules = len(clean.Rules)
	start := time.Now()
	rep := policyanalysis.AnalyzeRules(clean.Hierarchy, clean.Rules)
	elapsed := time.Since(start)
	if len(rep.Findings) != 0 {
		return row, fmt.Errorf("%s/%d: clean corpus has %d findings", shape, rules, len(rep.Findings))
	}
	row.AnalyzeMs = float64(elapsed.Nanoseconds()) / 1e6
	row.RulesPerSec = float64(row.Rules) / elapsed.Seconds()

	faulty, err := scenario.GenerateCorpus(scenario.CorpusConfig{Shape: shape, Rules: rules, Seed: 1, Faults: 8})
	if err != nil {
		return row, err
	}
	row.Faults = len(faulty.Faults)
	start = time.Now()
	rr := policyanalysis.PlanRepairs(faulty.Doc, faulty.Hierarchy, faulty.Rules)
	row.PlanMs = float64(time.Since(start).Nanoseconds()) / 1e6
	repaired := map[string]bool{}
	for _, r := range rr.Repairs {
		repaired[r.Code+"@"+fmt.Sprint(r.Priority)] = true
	}
	for _, f := range rr.Findings {
		if !policyanalysis.RepairableCodes[f.Code] {
			continue
		}
		row.Repairable++
		if repaired[f.Code+"@"+fmt.Sprint(f.Priority)] {
			row.Repaired++
		}
	}
	if row.Repairable > 0 {
		row.SuccessRate = float64(row.Repaired) / float64(row.Repairable)
	}
	_, _, after := policyanalysis.Fix(faulty.Doc, faulty.Hierarchy, faulty.Rules)
	row.FixClean = len(after.Findings) == 0

	// Cold-fleet shared scan over the clean corpus: one RuleCache, every
	// user merges from it after the first fill.
	pol, err := clean.Policy()
	if err != nil {
		return row, err
	}
	users := clean.Hierarchy.Users()
	if len(users) > 8 {
		users = users[:8]
	}
	row.StressUsers = len(users)
	start = time.Now()
	cache := policy.NewRuleCache(pol, clean.Doc)
	for _, u := range users {
		if _, err := cache.EvaluateShared(clean.Hierarchy, u); err != nil {
			return row, err
		}
	}
	row.SharedNsPerUser = float64(time.Since(start).Nanoseconds()) / float64(len(users))
	return row, nil
}

func e11RepairEngine() error {
	header("E11 — repair success rate, analyzer throughput, corpus shared-scan stress")
	sizes := []int{1000, 10000}
	if quick {
		sizes = []int{1000}
	}
	rep := e11Report{Schema: e11Schema, Quick: quick}
	fmt.Printf("%10s %7s %11s %12s %7s %11s %9s %9s %10s %14s\n",
		"shape", "rules", "analyze", "rules/sec", "faults", "repairable", "repaired", "fixclean", "plan", "shared/user")
	for _, shape := range scenario.Shapes() {
		for _, n := range sizes {
			row, err := e11Run(shape, n)
			if err != nil {
				return err
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("%10s %7d %10.1fms %12.0f %7d %11d %9d %9v %8.1fms %14s\n",
				row.Shape, row.Rules, row.AnalyzeMs, row.RulesPerSec, row.Faults,
				row.Repairable, row.Repaired, row.FixClean, row.PlanMs,
				time.Duration(row.SharedNsPerUser))
		}
	}
	f, err := os.Create(e11Out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("\nwrote %s\n", e11Out)
	}
	return err
}
