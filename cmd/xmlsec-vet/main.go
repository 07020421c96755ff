// Command xmlsec-vet statically proves that the Go source keeps the
// paper's access-control model closed: it type-checks the whole module
// (go/parser + go/types, stdlib only) and runs four invariant passes —
// viewbypass (no raw xmltree access or unsecured executors outside the
// trusted core, axioms 15–25), privconst (privileges only from the named
// axiom-14 constants), obslabel (metric labels compile-time bounded, no
// §2.2 covert channel through /metrics) and ctxflow (request contexts
// accepted and forwarded on the hot path).
//
// Usage:
//
//	xmlsec-vet [-json] [-C dir] [-baseline file] [-passes p1,p2]
//	xmlsec-vet -update-baseline [-C dir] [-baseline file]
//	xmlsec-vet -list
//
// Findings matched by the committed baseline file are suppressed and
// counted; stale baseline entries are errors. -json emits the canonical
// findings schema shared with xmlsec-lint (internal/findings).
// -update-baseline reruns all passes with an empty baseline and rewrites
// the baseline file from the surviving findings, keeping committed
// justifications; CI never runs it, so the committed file can only
// shrink.
//
// Exit codes: 0 no findings, 1 warnings only, 2 errors (including an
// unknown -passes name), 3 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"securexml/internal/srcanalysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmlsec-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the report as JSON (canonical findings schema)")
	moduleDir := fs.String("C", ".", "module root to analyze")
	baselinePath := fs.String("baseline", "vet-baseline.json", "baseline file, relative to the module root (missing file = empty baseline)")
	passList := fs.String("passes", "", "comma-separated subset of passes to run (default: all)")
	update := fs.Bool("update-baseline", false, "rerun all passes and rewrite the baseline file from the current findings")
	list := fs.Bool("list", false, "list the registered passes and exit")
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *list {
		for _, name := range srcanalysis.Passes() {
			fmt.Fprintf(stdout, "%-14s %s\n", name, srcanalysis.PassDoc(name))
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: xmlsec-vet [-json] [-C dir] [-baseline file] [-passes p1,p2] | xmlsec-vet -update-baseline | xmlsec-vet -list")
		return 3
	}

	cfg := srcanalysis.Config{ModuleDir: *moduleDir}
	if *passList != "" && !*update { // -update-baseline regenerates from all passes
		cfg.Passes = strings.Split(*passList, ",")
		known := make(map[string]bool)
		for _, name := range srcanalysis.Passes() {
			known[name] = true
		}
		for _, name := range cfg.Passes {
			if !known[name] {
				fmt.Fprintf(stderr, "xmlsec-vet: unknown pass %q (xmlsec-vet -list shows the registered passes)\n", name)
				return 2
			}
		}
	}
	bp := *baselinePath
	if !filepath.IsAbs(bp) {
		bp = filepath.Join(*moduleDir, bp)
	}
	base, err := srcanalysis.LoadBaseline(bp)
	if err != nil {
		fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
		return 3
	}
	prog, err := srcanalysis.Load(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
		return 3
	}
	if *update {
		rep, err := prog.Run(cfg, &srcanalysis.Baseline{})
		if err != nil {
			fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
			return 3
		}
		nb := srcanalysis.RegenerateBaseline(rep, base)
		if err := srcanalysis.SaveBaseline(bp, nb); err != nil {
			fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
			return 3
		}
		fmt.Fprintf(stdout, "xmlsec-vet: wrote %d baseline entries to %s\n", len(nb.Entries), bp)
		return 0
	}
	rep, err := prog.Run(cfg, base)
	if err != nil {
		fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
		return 3
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "xmlsec-vet: %v\n", err)
			return 3
		}
	} else {
		io.WriteString(stdout, rep.Text())
	}
	return rep.ExitCode()
}
