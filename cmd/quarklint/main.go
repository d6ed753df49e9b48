// Command quarklint runs quark's project-specific static-analysis
// suite (internal/lint): determlint, locklint, stagelint, persistlint,
// and obslint — the invariants behind byte-identical goldens, the
// global lock order, prepare/commit staging, tmp-then-rename CRC
// persistence, and zero-cost observability.
//
// Two modes:
//
// Standalone (does its own `go list` + type-check; no findings = exit 0):
//
//	go run ./cmd/quarklint ./...
//
// As a `go vet` backend, speaking the vettool unit protocol
// (-V=full / -flags handshakes and a vet.cfg compilation unit):
//
//	go build -o quarklint ./cmd/quarklint
//	go vet -vettool=$(pwd)/quarklint ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"quark/internal/lint"
)

func main() {
	// The go command's handshakes arrive as raw args before normal flag
	// parsing; answer them first.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// Release-style version line: three fields, f[1] == "version".
			fmt.Println("quarklint version v1-" + strings.Join(analyzerNames(), "-"))
			return
		case arg == "-flags" || arg == "--flags":
			// JSON description of tool flags; we expose none to vet.
			fmt.Println("[]")
			return
		}
	}

	dir := flag.String("C", "", "directory to run the standalone loader in")
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0])
		return
	}
	runStandalone(*dir, args)
}

func analyzerNames() []string {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	return names
}

// runUnit analyzes one compilation unit handed over by `go vet`.
func runUnit(cfgFile string) {
	pkg, cfg, err := lint.LoadUnit(cfgFile)
	if cfg != nil && cfg.VetxOutput != "" {
		// We compute no facts; an empty vetx file keeps the go command's
		// cache bookkeeping happy either way.
		_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
	}
	if err != nil {
		if cfg != nil && cfg.SucceedOnTypecheckFailure {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg.VetxOnly || cfg.IsTestUnit() {
		return
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(2)
	}
}

// runStandalone loads, checks, and reports over full package patterns.
func runStandalone(dir string, patterns []string) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "quarklint: %d package(s), %d finding(s)\n", len(pkgs), len(diags))
	if len(diags) > 0 {
		os.Exit(2)
	}
}
