// Command lint enforces repo conventions that go vet cannot express,
// using only go/parser and go/ast (no third-party linters):
//
//   - -docs: every package under internal/ and cmd/ (and the root
//     package) carries a package comment, and every internal package
//     comment anchors the code to the paper with at least one
//     "Section N" / "Figure N" / "Table N" / "Algorithm N" reference,
//     so godoc always says which part of the paper a package models.
//     Additionally, every `learn.*` metric registered in internal/sim
//     must be catalogued (backticked) in docs/LEARNED.md and
//     docs/OBSERVABILITY.md, and every `arena.*` metric in
//     docs/OBSERVABILITY.md, so those metric families cannot grow
//     undocumented names.
//   - -stdout: no CLI sends telemetry to stdout. Reports belong on
//     stdout; metric and event JSONL documents belong in files (the
//     docs/OBSERVABILITY.md contract), so passing os.Stdout to
//     WriteJSONL or NewJSONLTracer under cmd/ is an error.
//
// With no mode flags, both checks run. Run via `make docs-check`
// (-docs) or `make lint` (both); tier1 includes both.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// anchorRE is the paper-anchor pattern an internal package comment must
// contain.
var anchorRE = regexp.MustCompile(`(Section|Figure|Table|Algorithm) [0-9]`)

func main() {
	var (
		docs   = flag.Bool("docs", false, "check package comments and paper anchors")
		stdout = flag.Bool("stdout", false, "check that no CLI writes telemetry to stdout")
	)
	flag.Parse()
	if !*docs && !*stdout {
		*docs, *stdout = true, true
	}

	var problems []string
	if *docs {
		problems = append(problems, checkDocs()...)
		problems = append(problems, checkLearnMetricsDocumented()...)
	}
	if *stdout {
		problems = append(problems, checkStdout()...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "lint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// packageDirs returns every directory holding a checked package: the
// repo root, and every directory under internal/ and cmd/ containing
// .go files.
func packageDirs() ([]string, error) {
	dirs := map[string]bool{".": true}
	for _, root := range []string{"internal", "cmd", "tools"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				dirs[filepath.Dir(path)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]string, 0, len(dirs))
	for d := range dirs {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

// sourceFiles lists the non-test .go files directly inside dir.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	return files, nil
}

func checkDocs() []string {
	dirs, err := packageDirs()
	if err != nil {
		return []string{fmt.Sprintf("lint: %v", err)}
	}
	var problems []string
	for _, dir := range dirs {
		files, err := sourceFiles(dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		if len(files) == 0 {
			continue
		}
		fset := token.NewFileSet()
		var doc string
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			if f.Doc != nil {
				doc += f.Doc.Text()
			}
		}
		switch {
		case doc == "":
			problems = append(problems, fmt.Sprintf("%s: package has no package comment", dir))
		case strings.HasPrefix(dir, "internal"+string(filepath.Separator)) && !anchorRE.MatchString(doc):
			problems = append(problems, fmt.Sprintf(
				"%s: package comment cites no paper anchor (Section/Figure/Table/Algorithm N)", dir))
		}
	}
	return problems
}

// metricDocRules maps a registered metric-name prefix to the docs that
// must catalogue (backtick) every name carrying it: the learned family
// is documented twice (its own guide plus the catalog); the arena
// recycling family lives in the catalog alone.
var metricDocRules = []struct {
	prefix string
	docs   []string
}{
	{"learn.", []string{"LEARNED.md", "OBSERVABILITY.md"}},
	{"arena.", []string{"OBSERVABILITY.md"}},
}

// checkLearnMetricsDocumented collects every string-literal metric name
// matching a metricDocRules prefix passed to a Counter/Gauge
// registration inside internal/sim and requires each to appear
// backticked in that prefix's required docs. (The contract tests check
// the emitted set at runtime; this check catches a new registration at
// lint time, before any simulation runs.)
func checkLearnMetricsDocumented() []string {
	var problems []string
	registrars := map[string]bool{"Counter": true, "Gauge": true}
	names := map[string]token.Position{}
	err := filepath.WalkDir(filepath.Join("internal", "sim"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name := strings.Trim(lit.Value, "`\"")
			for _, rule := range metricDocRules {
				if strings.HasPrefix(name, rule.prefix) {
					names[name] = fset.Position(lit.Pos())
					break
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("lint: %v", err)}
	}
	bodies := map[string]string{}
	for _, rule := range metricDocRules {
		for _, doc := range rule.docs {
			if _, ok := bodies[doc]; ok {
				continue
			}
			raw, err := os.ReadFile(filepath.Join("docs", doc))
			if err != nil {
				return []string{fmt.Sprintf("lint: %v", err)}
			}
			bodies[doc] = string(raw)
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		for _, rule := range metricDocRules {
			if !strings.HasPrefix(name, rule.prefix) {
				continue
			}
			for _, doc := range rule.docs {
				if !strings.Contains(bodies[doc], "`"+name+"`") {
					problems = append(problems, fmt.Sprintf(
						"%s: metric %q is not catalogued in docs/%s", names[name], name, doc))
				}
			}
			break
		}
	}
	return problems
}

// checkStdout flags telemetry constructors invoked with os.Stdout
// anywhere under cmd/.
func checkStdout() []string {
	var problems []string
	telemetry := map[string]bool{"WriteJSONL": true, "NewJSONLTracer": true}
	err := filepath.WalkDir("cmd", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			case *ast.Ident:
				name = fn.Name
			}
			if !telemetry[name] {
				return true
			}
			for _, arg := range call.Args {
				if sel, ok := arg.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" && sel.Sel.Name == "Stdout" {
						problems = append(problems, fmt.Sprintf(
							"%s: %s(os.Stdout, ...) sends telemetry to stdout; reports go to stdout, telemetry to files",
							fset.Position(call.Pos()), name))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("lint: %v", err))
	}
	return problems
}
