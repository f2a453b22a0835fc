// Command clashvet runs the repo's invariant analyzers over the module:
//
//	go run ./cmd/clashvet ./...
//	go run ./cmd/clashvet ./internal/core ./internal/overlay
//	go run ./cmd/clashvet -only clockcheck,poolcheck ./...
//
// It loads and type-checks packages from source (no go/packages, no network),
// runs every analyzer — clockcheck, poolcheck, wireevolve, hotpath — applies
// //clashvet:ignore directives, and prints surviving diagnostics one per line
// as file:line:col: [analyzer] message. The exit status is 1 when any
// diagnostic (including a malformed directive) remains, so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"clash/internal/analysis"
	"clash/internal/analysis/clockcheck"
	"clash/internal/analysis/hotpath"
	"clash/internal/analysis/poolcheck"
	"clash/internal/analysis/wireevolve"
)

var all = []*analysis.Analyzer{
	clockcheck.Analyzer,
	hotpath.Analyzer,
	poolcheck.Analyzer,
	wireevolve.Analyzer,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: clashvet [-only names] [packages | ./...]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clashvet: %v\n", err)
		os.Exit(2)
	}

	diags, err := runAnalyzers(analyzers, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "clashvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "clashvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run with -list for names)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func runAnalyzers(analyzers []*analysis.Analyzer, args []string) ([]analysis.Diagnostic, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		return nil, err
	}

	var pkgs []*analysis.Package
	if len(args) == 0 || (len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		pkgs, err = loader.LoadAll()
		if err != nil {
			return nil, err
		}
	} else {
		for _, arg := range args {
			path, err := argToImportPath(root, arg)
			if err != nil {
				return nil, err
			}
			pkg, err := loader.Load(path)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return analysis.Run(pkgs, analyzers)
}

// argToImportPath accepts either an import path ("clash/internal/core") or a
// filesystem path ("./internal/core") and yields the import path.
func argToImportPath(root, arg string) (string, error) {
	modPath, err := moduleName(root)
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(arg, ".") && !filepath.IsAbs(arg) {
		return arg, nil
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("package %s is outside the module", arg)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
