// Package analysis is hybridship's project-specific static-analysis layer:
// a small, stdlib-only (go/ast, go/parser, go/types, go/token) lint driver
// plus the analyzers behind `cmd/hslint`.
//
// The repo's load-bearing guarantee is determinism: the optimizer and the
// experiment grids are byte-identical across GOMAXPROCS, and the sim/exec
// fast paths reproduce the committed figures bit for bit. Those invariants
// used to be enforced only by after-the-fact regression tests; the analyzers
// here reject the code patterns that historically broke them at analysis
// time instead:
//
//   - nodeterm: map-iteration order leaking into results; wall-clock
//     (time.Now/time.Since) and global math/rand state in simulation code.
//   - seedflow: ad-hoc seed-mixing arithmetic outside internal/seedmix,
//     the bug class behind PR 2's correlated load-generator streams.
//   - simhot: eager fmt.Sprintf process names and string building on the
//     simulation kernel's hot path, per the PR 1/2 allocation-lean rules.
//   - floatsum: floating-point accumulation in an order the language does
//     not fix (map ranges, goroutine-spawning loops).
//
// A finding the author can prove harmless is waived in the source with a
// `//hslint:` comment carrying a justification; see waiver.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, formatted as "file:line: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects every loaded package and
// reports findings through the Unit; the driver handles waivers, ordering
// and formatting.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Unit)
}

// Config scopes the analyzers to the packages whose invariants they guard.
// All paths are full import paths (or path prefixes where noted); tests
// point these at fixture modules.
type Config struct {
	// DeterministicPkgs are the packages whose outputs must not depend on
	// map-iteration order or float-accumulation order.
	DeterministicPkgs []string
	// SeedMixPkg is the one package allowed to contain seed-mixing
	// arithmetic.
	SeedMixPkg string
	// SimPkg is the simulation kernel; every function it defines is treated
	// as a hot-path root for the simhot reachability walk, and its Spawn
	// methods are the ones checked for eagerly built names.
	SimPkg string
	// TimingExemptPrefixes are import-path prefixes (e.g. "mod/cmd/") where
	// wall-clock calls are legitimate: interactive entry points may time
	// themselves.
	TimingExemptPrefixes []string
	// ExecPkg is the package holding the execution engine. Functions
	// declared in its OpFiles are the roots of simhot's per-row-allocation
	// walk; empty disables the rule.
	ExecPkg string
	// OpFiles names ExecPkg's operator source files by basename (e.g.
	// "ops.go", "join.go"); their top-level functions seed the engine's
	// hot-path reachability walk.
	OpFiles []string
	// RowType names a per-row type (in ExecPkg) whose construction is
	// banned on the engine's hot path, where rows live in columnar batches.
	RowType string
	// SharedStateFuncs names, by types.Func.FullName ("(*path/pkg.T).M" for
	// a method), functions that mutate state other simulated processes
	// observe without a kernel event (e.g. a site's shared temp-region
	// allocator). Chargeflow treats them as kernel-visible: coalesced
	// charges must land before them, or the mutation happens at an earlier
	// virtual time than the charges imply.
	SharedStateFuncs []string
	// ChargeAccType names the charge-accumulator type declared in ExecPkg
	// whose flush-before-kernel-visible-operation contract chargeflow
	// enforces; empty disables the pass.
	ChargeAccType string
}

// DefaultConfig returns the hybridship configuration for a module rooted at
// modulePath.
func DefaultConfig(modulePath string) *Config {
	det := []string{"opt", "exec", "sim", "experiments", "workload", "stats", "cost", "plan", "faults", "serve", "shard", "catalog", "coherence"}
	c := &Config{
		SeedMixPkg:    modulePath + "/internal/seedmix",
		SimPkg:        modulePath + "/internal/sim",
		ExecPkg:       modulePath + "/internal/exec",
		OpFiles:       []string{"batch.go", "hash.go", "join.go", "ops.go"},
		RowType:       "Tuple",
		ChargeAccType: "chargeAcc",
		SharedStateFuncs: []string{
			"(*" + modulePath + "/internal/exec.site).allocTemp",
		},
		TimingExemptPrefixes: []string{
			modulePath + "/cmd/",
			modulePath + "/examples/",
		},
	}
	for _, p := range det {
		c.DeterministicPkgs = append(c.DeterministicPkgs, modulePath+"/internal/"+p)
	}
	return c
}

func (c *Config) deterministic(path string) bool {
	for _, p := range c.DeterministicPkgs {
		if p == path {
			return true
		}
	}
	return false
}

func (c *Config) timingExempt(path string) bool {
	for _, p := range c.TimingExemptPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// Unit is what an analyzer sees: the whole loaded module plus a report sink.
// Analyzers run over all packages at once because simhot needs a
// cross-package call graph; the single-package analyzers just loop.
type Unit struct {
	Fset     *token.FileSet
	Packages []*Package
	Config   *Config

	analyzer string
	diags    *[]Diagnostic
	cg       *CallGraph
}

// Report records a finding at pos.
func (u *Unit) Report(pos token.Pos, format string, args ...any) {
	*u.diags = append(*u.diags, Diagnostic{
		Pos:      u.Fset.Position(pos),
		Analyzer: u.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers is the full hslint suite in the order findings are attributed.
func Analyzers() []*Analyzer {
	return []*Analyzer{Nodeterm, Seedflow, Simhot, Floatsum, Chargeflow, Parksafe, Detreach}
}

// runRaw executes every analyzer over the module and returns the raw
// findings (before waiver filtering) plus the parsed waivers.
func runRaw(mod *Module, cfg *Config, analyzers []*Analyzer) ([]Diagnostic, []Waiver) {
	var diags []Diagnostic
	u := &Unit{Fset: mod.Fset, Packages: mod.Packages, Config: cfg, diags: &diags}
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
		u.analyzer = a.Name
		a.Run(u)
	}

	waivers := mod.Waivers()
	u.analyzer = "waiver"
	for _, w := range waivers {
		if w.Err != "" {
			u.Report(w.Pos, "%s", w.Err)
			continue
		}
		for _, name := range w.Analyzers {
			if !known[name] {
				u.Report(w.Pos, "waiver names unknown analyzer %q", name)
			}
		}
	}
	return diags, waivers
}

// Run executes every analyzer over the module, drops waived findings, and
// returns the survivors sorted by position. Waivers naming an unknown
// analyzer or missing a justification are themselves reported.
func Run(mod *Module, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	diags, waivers := runRaw(mod, cfg, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "waiver" && waived(waivers, d) {
			continue
		}
		kept = append(kept, d)
	}
	return sortDiags(kept)
}

// AuditWaivers runs the analyzers and reports waiver-hygiene problems
// instead of findings: well-formed waivers that no longer suppress any raw
// finding (stale — the target was fixed or moved, so the waiver now only
// misleads), and duplicate waivers where two comments on the same line name
// the same analyzer.
func AuditWaivers(mod *Module, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	raw, waivers := runRaw(mod, cfg, analyzers)

	var out []Diagnostic
	report := func(w *Waiver, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      mod.Fset.Position(w.Pos),
			Analyzer: "waiver",
			Message:  fmt.Sprintf(format, args...),
		})
	}

	type lineKey struct {
		file     string
		line     int
		analyzer string
	}
	seen := make(map[lineKey]bool)
	for i := range waivers {
		w := &waivers[i]
		if w.Err != "" {
			continue
		}
		for _, a := range w.Analyzers {
			k := lineKey{w.File, w.Line, a}
			if seen[k] {
				report(w, "duplicate waiver: %q already waived on this line", a)
			}
			seen[k] = true
		}
		live := false
		for _, d := range raw {
			if d.Analyzer != "waiver" && waived(waivers[i:i+1], d) {
				live = true
				break
			}
		}
		if !live {
			report(w, "stale waiver (%s): no finding on this line or the next — remove it",
				strings.Join(w.Analyzers, ","))
		}
	}
	return sortDiags(out)
}

func sortDiags(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// typeOf is Info.TypeOf with a nil guard for robustness on partially
// typed code.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if info == nil {
		return nil
	}
	return info.TypeOf(e)
}

// rootIdent unwraps selectors, indexing, stars and parens down to the
// left-most identifier: a.b[i].c → a. Returns nil for expressions not
// rooted in an identifier (function results, composite literals, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object via Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}

// isPkgFunc reports whether e is a call target resolving to the named
// package-level function, e.g. isPkgFunc(info, fun, "fmt", "Sprintf").
func isPkgFunc(info *types.Info, fun ast.Expr, pkgPath, name string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}
