// Command gklint runs the repo's static-analysis suite (internal/lint) over
// every package in the enclosing module and reports invariant violations:
//
//	go run ./cmd/gklint ./...
//
// Six analyzers run — noalloc, coordsafe, errcheck, lockcheck, chanlife,
// wrapcheck (docs/lint.md) — with the noalloc registry cross-check, the check
// that every analyzer scope key still names something in the tree, and the
// stale-suppression audit always on.
//
// Diagnostics are printed one per line as file:line:col: analyzer: message
// (or, with -json, one JSON object per line with file/line/col/analyzer/
// message fields), and the exit status is non-zero when any finding
// survives. Suppressions require a //gk:allow <analyzer>: <reason> comment
// on the flagged line or the line above; unjustified or stale suppressions
// are findings themselves.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON Lines (one object per finding)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gklint [-json] [./...]\n\ngklint always analyzes the whole module containing the working directory;\nthe ./... argument is accepted for familiarity.\n")
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "gklint: unsupported pattern %q (the whole module is always analyzed)\n", arg)
			os.Exit(2)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(m, lint.Config{
		Analyzers:          lint.DefaultAnalyzers(),
		CheckRegistry:      true,
		ReportUnusedAllows: true,
	})
	for i, d := range diags {
		// Render paths relative to the module root so output is stable
		// across checkouts.
		if rel, err := filepath.Rel(root, d.Position.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Position.Filename = rel
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gklint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gklint:", err)
	os.Exit(1)
}
