// Command alexvet runs the project's custom static analyzers
// (internal/lint) over the repository and reports every violated
// invariant. It is the blocking lint gate CI runs:
//
//	go run ./cmd/alexvet ./...
//
// Each analyzer mechanically enforces one contract from
// docs/concurrency.md or docs/failure-model.md — the faultfs seam
// (fsbypass), atomic structural references (atomicfield), race/!race
// surface parity (optparity), the durability error contract (errwrap),
// and the shard lock-order rule (locknest) — plus an advisory
// struct-layout pass (fieldalign).
// See docs/static-analysis.md for the catalog and the
// //alexvet:ignore suppression convention.
//
// Exit status: 0 clean (advisory findings allowed), 1 blocking
// findings, 2 load or type-check failure. -q prints only the summary;
// -list prints the analyzer catalog; -strict-layout also blocks on
// fieldalign findings (the layout ratchet).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	quiet := flag.Bool("q", false, "print only the summary line")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	strictLayout := flag.Bool("strict-layout", false, "treat advisory fieldalign findings as blocking")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			kind := "blocking"
			if a.Advisory {
				kind = "advisory"
			}
			fmt.Printf("%-12s %-9s %s\n", a.Name, kind, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alexvet: %v\n", err)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "alexvet: %v\n", err)
		os.Exit(2)
	}

	loader := lint.NewLoader()
	blocking, advisory := 0, 0
	loadFailed := false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alexvet: %s: %v\n", dir, err)
			loadFailed = true
			continue
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "alexvet: %s: type error: %v\n", pkg.Path, terr)
			loadFailed = true
		}
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			rel = dir
		}
		if rel == "." {
			rel = ""
		}
		for _, a := range analyzers {
			diags, err := lint.RunScoped(a, pkg, filepath.ToSlash(rel))
			if err != nil {
				fmt.Fprintf(os.Stderr, "alexvet: %v\n", err)
				loadFailed = true
				continue
			}
			for _, d := range diags {
				if d.Advisory && !*strictLayout {
					advisory++
				} else {
					blocking++
				}
				if !*quiet {
					pos := pkg.Fset.Position(d.Pos)
					tag := ""
					if d.Advisory {
						tag = " advisory:"
					}
					fmt.Printf("%s:%d:%d: [%s]%s %s\n", relPath(root, pos.Filename), pos.Line, pos.Column, d.Analyzer, tag, d.Message)
				}
			}
		}
	}
	fmt.Printf("alexvet: %d blocking finding(s), %d advisory\n", blocking, advisory)
	switch {
	case loadFailed:
		os.Exit(2)
	case blocking > 0:
		os.Exit(1)
	}
}

// relPath renders a file path relative to the working directory for
// compact, clickable findings.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return rel
	}
	return path
}
