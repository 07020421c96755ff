// Command xmlsec-bench runs the performance experiments of EXPERIMENTS.md
// (B1–B7, B11, E11) and prints one table per experiment. It is the
// human-friendly companion of the testing.B benchmarks in bench_test.go;
// shapes reported by both must agree. B11 and E11 also write a JSON
// report. End-to-end load and per-layer attribution live in the gated
// _e2ebench module; hot-kernel timings in `make bench-micro`.
//
// Usage:
//
//	xmlsec-bench                        # run all experiments
//	xmlsec-bench -exp b1                # one experiment (b1..b7, b11, e11)
//	xmlsec-bench -quick                 # smaller sweeps
//	xmlsec-bench -exp b11 -b11-out BENCH_b11.json
//	xmlsec-bench -exp e11 -e11-out BENCH_e11.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"securexml/internal/access"
	"securexml/internal/baseline"
	"securexml/internal/labeling"
	"securexml/internal/logicmodel"
	"securexml/internal/policy"
	"securexml/internal/qfilter"
	"securexml/internal/subject"
	"securexml/internal/view"
	"securexml/internal/workload"
	"securexml/internal/xmltree"
	"securexml/internal/xpath"
	"securexml/internal/xupdate"
)

var (
	quick  bool
	b11Out string
	e11Out string
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (b1..b7, b11, e11, or all)")
	flag.BoolVar(&quick, "quick", false, "smaller sweeps")
	flag.StringVar(&b11Out, "b11-out", "BENCH_b11.json", "where experiment b11 writes its report")
	flag.StringVar(&e11Out, "e11-out", "BENCH_e11.json", "where experiment e11 writes its report")
	flag.Parse()

	experiments := map[string]func() error{
		"b1":  b1ViewMaterialization,
		"b2":  b2XPathAxes,
		"b3":  b3WritePaths,
		"b4":  b4LabelSchemes,
		"b5":  b5LogicVsNative,
		"b6":  b6ConflictResolution,
		"b7":  b7QueryFilter,
		"b11": b11IncrementalMaintenance,
		"e11": e11RepairEngine,
	}
	if *exp != "all" {
		fn, ok := experiments[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "xmlsec-bench: unknown experiment %q\n", *exp)
			os.Exit(1)
		}
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "xmlsec-bench:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range []string{"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b11", "e11"} {
		if err := experiments[name](); err != nil {
			fmt.Fprintln(os.Stderr, "xmlsec-bench:", err)
			os.Exit(1)
		}
	}
}

// timeIt measures the median-ish cost of fn by running it reps times.
func timeIt(reps int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}

func header(title string) {
	fmt.Printf("\n### %s\n\n", title)
}

func b1ViewMaterialization() error {
	header("B1 — view materialization: document size x policy size (user beaufort)")
	sizes := []int{10, 100, 1000, 5000}
	ruleCounts := []int{0, 32, 128}
	if quick {
		sizes = []int{10, 100, 1000}
		ruleCounts = []int{0, 32}
	}
	fmt.Printf("%10s %12s %12s %12s %12s\n", "patients", "nodes", "rules", "perm-pass", "view-total")
	for _, n := range sizes {
		for _, extra := range ruleCounts {
			d, err := workload.Hospital(workload.HospitalConfig{Patients: n, Seed: 1})
			if err != nil {
				return err
			}
			h, err := workload.HospitalHierarchy(n)
			if err != nil {
				return err
			}
			p, err := workload.ScaledPolicy(h, extra)
			if err != nil {
				return err
			}
			reps := repsFor(n)
			permCost, err := timeIt(reps, func() error {
				_, err := p.Evaluate(d, h, "beaufort")
				return err
			})
			if err != nil {
				return err
			}
			totalCost, err := timeIt(reps, func() error {
				pm, err := p.Evaluate(d, h, "beaufort")
				if err != nil {
					return err
				}
				view.Materialize(d, pm)
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Printf("%10d %12d %12d %12s %12s\n", n, d.Len(), p.Len(), permCost, totalCost)
		}
	}
	fmt.Println("\nExpected shape: ~linear in nodes; the rule count affects the perm pass only.")
	return nil
}

func repsFor(n int) int {
	switch {
	case n >= 5000:
		return 3
	case n >= 1000:
		return 10
	default:
		return 50
	}
}

func b2XPathAxes() error {
	header("B2 — XPath evaluation cost by axis (random tree, ~20k nodes)")
	nodes := 20000
	if quick {
		nodes = 5000
	}
	d, err := workload.RandomTree(workload.TreeConfig{Nodes: nodes, Seed: 9})
	if err != nil {
		return err
	}
	queries := []struct{ name, path string }{
		{"child", "/root/*"},
		{"descendant", "//item"}, // served by the element-name index
		{"descendant-walk", "/descendant-or-self::*/self::item"},
		{"descendant-text", "//item/text()"},
		{"positional", "//group[2]"},
		{"value-predicate", "//item[text() = 'v100']"},
		{"ancestor", "//item[1]/ancestor::*"},
		{"union", "//a | //b"},
		{"count", "count(//item)"},
	}
	fmt.Printf("%18s %12s %10s\n", "query", "cost", "result")
	for _, q := range queries {
		c, err := xpath.Compile(q.path)
		if err != nil {
			return err
		}
		var size string
		cost, err := timeIt(5, func() error {
			v, err := c.Eval(d.Root(), nil)
			if err != nil {
				return err
			}
			if ns, ok := v.(xpath.NodeSet); ok {
				size = fmt.Sprintf("%d nodes", len(ns))
			} else {
				size = v.Str()
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%18s %12s %10s\n", q.name, cost, size)
	}
	fmt.Println("\nExpected shape: descendant axes scale with subtree size; child with fan-out.")
	return nil
}

func b3WritePaths() error {
	header("B3 — write paths: secured (view) vs baseline (source) vs unsecured floor")
	patients := 500
	if quick {
		patients = 100
	}
	op := &xupdate.Op{Kind: xupdate.Update,
		Select: fmt.Sprintf("/patients/p%d/diagnosis", patients/2), NewValue: "seen"}
	build := func() (*xmltree.Document, *subject.Hierarchy, *policy.Policy, error) {
		d, err := workload.Hospital(workload.HospitalConfig{Patients: patients, Seed: 1})
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
		return d, h, p, nil
	}
	fmt.Printf("%26s %12s\n", "path", "cost/op")
	{
		d, h, p, err := build()
		if err != nil {
			return err
		}
		cost, err := timeIt(20, func() error {
			_, _, err := access.Execute(d, h, p, "laporte", op)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%26s %12s\n", "secured (view writes)", cost)
	}
	{
		d, h, p, err := build()
		if err != nil {
			return err
		}
		cost, err := timeIt(20, func() error {
			_, err := baseline.Execute(d, h, p, "laporte", op)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%26s %12s\n", "baseline (source writes)", cost)
	}
	{
		d, _, _, err := build()
		if err != nil {
			return err
		}
		cost, err := timeIt(200, func() error {
			_, err := xupdate.Execute(d, op, nil)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%26s %12s\n", "unsecured floor", cost)
	}
	fmt.Println("\nExpected shape: secured ≈ perm+view cost on top of the baseline;")
	fmt.Println("both privilege-checked paths sit well above the unsecured floor.")
	return nil
}

func b4LabelSchemes() error {
	header("B4 — labeling scheme ablation: key growth under insertion storms")
	n := 100000
	if quick {
		n = 10000
	}
	fmt.Printf("%10s %14s %16s %16s\n", "scheme", "pattern", "inserts", "final key bytes")
	for _, name := range []string{"fracpath", "lsdx"} {
		s, err := labeling.ByName(name)
		if err != nil {
			return err
		}
		prev := ""
		for i := 0; i < n; i++ {
			k, err := s.Between(prev, "")
			if err != nil {
				return err
			}
			prev = k
		}
		fmt.Printf("%10s %14s %16d %16d\n", name, "append", n, len(prev))

		lo, _ := s.First()
		hi, err := s.Between(lo, "")
		if err != nil {
			return err
		}
		splits := 200
		for i := 0; i < splits; i++ {
			mid, err := s.Between(lo, hi)
			if err != nil {
				return err
			}
			if i%2 == 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		fmt.Printf("%10s %14s %16d %16d\n", name, "midsplit", splits, len(lo))
	}
	fmt.Println("\nExpected shape: fracpath appends stay O(log n); lsdx appends grow ~n/25.")
	fmt.Println("Midsplits grow linearly for both (information-theoretic lower bound).")
	return nil
}

func b5LogicVsNative() error {
	header("B5 — the Datalog axioms vs the native engines (secretary view)")
	sizes := []int{5, 20, 50}
	if quick {
		sizes = []int{5, 20}
	}
	fmt.Printf("%10s %12s %14s %14s %8s\n", "patients", "nodes", "native", "logic", "ratio")
	for _, n := range sizes {
		d, err := workload.Hospital(workload.HospitalConfig{Patients: n, Seed: 1})
		if err != nil {
			return err
		}
		h, err := workload.HospitalHierarchy(n)
		if err != nil {
			return err
		}
		p, err := workload.HospitalPolicy(h)
		if err != nil {
			return err
		}
		native, err := timeIt(20, func() error {
			pm, err := p.Evaluate(d, h, "beaufort")
			if err != nil {
				return err
			}
			view.Materialize(d, pm)
			return nil
		})
		if err != nil {
			return err
		}
		logic, err := timeIt(3, func() error {
			_, err := logicmodel.Build(d, h, p, "beaufort")
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d %12d %14s %14s %7.0fx\n", n, d.Len(), native, logic,
			float64(logic)/float64(native))
	}
	fmt.Println("\nExpected shape: the logic encoding is orders of magnitude slower and")
	fmt.Println("grows super-linearly — it is the correctness oracle, not the engine.")
	return nil
}

func b6ConflictResolution() error {
	header("B6 — conflict resolution (axiom 14) scaling with rule count")
	extras := []int{0, 16, 64, 256, 1024}
	if quick {
		extras = []int{0, 16, 64}
	}
	d, err := workload.Hospital(workload.HospitalConfig{Patients: 200, Seed: 1})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %14s\n", "rules", "perm pass")
	for _, extra := range extras {
		h, err := workload.HospitalHierarchy(200)
		if err != nil {
			return err
		}
		p, err := workload.ScaledPolicy(h, extra)
		if err != nil {
			return err
		}
		cost, err := timeIt(5, func() error {
			_, err := p.Evaluate(d, h, "laporte")
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d %14s\n", p.Len(), cost)
	}
	fmt.Println("\nExpected shape: linear in the applicable rule count (one XPath")
	fmt.Println("evaluation per rule; latest-wins scan is constant per node).")
	return nil
}

func b7QueryFilter() error {
	header("B7 — query-filter enforcement (§5 future work) vs view materialization")
	sizes := []int{100, 1000, 5000}
	if quick {
		sizes = []int{100, 1000}
	}
	query, err := xpath.Compile("/patients/*[service = 'cardiology']")
	if err != nil {
		return err
	}
	fmt.Printf("%10s %18s %14s %16s %14s\n",
		"patients", "filtered 1-shot", "view 1-shot", "filtered x100", "view x100")
	for _, n := range sizes {
		d, err := workload.Hospital(workload.HospitalConfig{Patients: n, Seed: 1})
		if err != nil {
			return err
		}
		h, err := workload.HospitalHierarchy(n)
		if err != nil {
			return err
		}
		p, err := workload.HospitalPolicy(h)
		if err != nil {
			return err
		}
		pm, err := p.Evaluate(d, h, "beaufort")
		if err != nil {
			return err
		}
		sec := qfilter.ForPerms(pm)
		f1, err := timeIt(10, func() error {
			_, err := query.SelectFiltered(d.Root(), nil, sec)
			return err
		})
		if err != nil {
			return err
		}
		v1, err := timeIt(10, func() error {
			v := view.Materialize(d, pm)
			_, err := query.Select(v.Doc.Root(), nil)
			return err
		})
		if err != nil {
			return err
		}
		f100, err := timeIt(2, func() error {
			for q := 0; q < 100; q++ {
				if _, err := query.SelectFiltered(d.Root(), nil, sec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		v100, err := timeIt(2, func() error {
			v := view.Materialize(d, pm)
			for q := 0; q < 100; q++ {
				if _, err := query.Select(v.Doc.Root(), nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d %18s %14s %16s %14s\n", n, f1, v1, f100, v100)
	}
	fmt.Println("\nExpected shape: filtering wins one-shot queries; the materialized view")
	fmt.Println("amortizes over repeated queries (crossover around 2-5 queries/epoch).")
	return nil
}
