// Package lint is the project's static-analysis suite: a small,
// dependency-free analysis framework (the container image this repo
// builds in has no network, so golang.org/x/tools/go/analysis is not
// available; the API here mirrors its shape so analyzers could be
// ported verbatim if that dependency ever lands) plus nine analyzers
// that mechanically enforce invariants the earlier PRs established by
// convention:
//
//   - cowsafety: values reached from an atomic.Pointer Load are
//     copy-on-write — never mutated in place (the surveys published by
//     internal/crawler and held by the verdict cache, internal/topology).
//   - determinism: the replay-deterministic packages
//     (internal/transport, internal/delta, internal/snapshot) must not
//     read wall clocks, the global math/rand source, or emit output in
//     map iteration order.
//   - atomicwrite: persisted artifacts go through internal/atomicio
//     (tmp+fsync+rename), never bare os.WriteFile/os.Create/os.Rename.
//   - ctxflow: a function that receives a context.Context must not
//     sever it by passing context.Background()/context.TODO() onward.
//   - errwrapped: sentinel errors are wrapped with %w, not stringified
//     with %v/%s, so the fail-closed errors.Is checks keep working.
//
// The last four are flow-sensitive: they run over the intra-procedural
// CFG builder (BuildCFG) and worklist dataflow engine
// (ForwardFlow/BackwardFlow) in this package, so they reason about
// execution paths — every return, panic edge, and loop back edge —
// rather than syntax:
//
//   - locksafety: locks released on every exit path, no double-lock or
//     RLock/Unlock mismatch, no blocking calls under a shard lock, and
//     a consistent lock acquisition order.
//   - goroutineleak: every go statement's goroutine can reach its
//     function exit (a ctx/done/stop path), directly or through
//     same-package callees.
//   - hotpathalloc: //lint:hotpath functions stay free of fmt/log,
//     string concat/conversion, capturing closures, interface boxing,
//     map/slice literals, and go statements.
//   - viewimmutable: exported methods of //lint:immutable
//     generation-stamped read types never write receiver-reachable
//     memory (outside Once/mutex-guarded memoization, verified against
//     the locksafety dataflow) and return defensive copies.
//
// Findings are suppressed per line with
//
//	//lint:allow <analyzer>[,<analyzer>] <reason>
//
// where the reason is mandatory and non-empty; the framework itself
// reports malformed allow comments. cmd/dnslint is the multichecker
// driver; linttest runs analyzers against testdata with // want
// expectations, in the style of analysistest.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. Run inspects a single
// type-checked package through its Pass and reports findings via
// Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and
	// what a finding means.
	Doc string
	// Run performs the analysis. A returned error aborts the whole
	// lint run (it means the analyzer itself failed, not that the code
	// has findings).
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// objectOf resolves an identifier to its object via Uses or Defs.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// isPkgFunc reports whether the call's callee is the package-level
// function pkgPath.name (not a method, not a local shadow).
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.objectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// A Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Check runs the analyzers over one loaded package and returns the
// surviving diagnostics: //lint:allow suppressions are applied, and
// malformed allow comments (no reason, unknown analyzer) are themselves
// reported under the pseudo-analyzer "lint". The result is sorted by
// position.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = suppress(pkg, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}
