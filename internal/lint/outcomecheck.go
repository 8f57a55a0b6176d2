// The outcomecheck analyzer: degradation outcomes must not vanish. PR 2
// replaced sentinel values with typed scanner.Outage records and gave
// scans an error channel precisely so degraded runs are visible; both
// are defeated by one `_ =`. Three rules:
//
//  1. A scanner.Outage (or []Outage) produced by a call must not be
//     discarded — dropping it un-counts a lost country.
//  2. An error returned by the scan/sink vocabulary (package scanner
//     functions, Emit*/Flush methods, internal/report encoders)
//     must not be ignored: a cancelled or failed scan that reports nil
//     coverage loss looks identical to a perfect run.
//  3. fmt.Errorf with an error operand must wrap it with %w — %v/%s
//     strips the chain that errors.Is/As classification (redirect
//     taxonomy, brownout detection) depends on.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Outcomecheck forbids dropped Outage values, ignored scan/sink errors,
// and unwrapped error operands in fmt.Errorf.
var Outcomecheck = &Analyzer{
	Name:  "outcomecheck",
	Doc:   "handle every scanner.Outage and scan/sink error; wrap error operands with %w",
	Match: scope("geoblock/..."),
	Run:   runOutcomecheck,
}

func runOutcomecheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedResults(p, call, nil)
				}
			case *ast.AssignStmt:
				checkBlankAssign(p, n)
			case *ast.CallExpr:
				checkErrorfWrap(p, n)
			}
			return true
		})
	}
}

// checkDroppedResults flags a call statement that discards an Outage or
// a vocabulary error outright. blanks, when non-nil, maps result index
// -> discarded-by-blank for the multi-value assignment case.
func checkDroppedResults(p *Pass, call *ast.CallExpr, blanks map[int]bool) {
	fn := funcFor(p.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if blanks != nil && !blanks[i] {
			continue
		}
		t := res.At(i).Type()
		switch {
		case isOutageType(t):
			p.Reportf(call.Pos(), "%s's Outage result is discarded: a lost country goes uncounted; record it (or pass an OutageSink)", fn.Name())
		case errorVocabulary(fn) && types.Implements(t, errorIface):
			p.Reportf(call.Pos(), "%s's error is ignored: a cancelled or degraded scan becomes indistinguishable from a full one; check it (log, record, or propagate)", fn.Name())
		}
	}
}

// checkBlankAssign finds `x, _ := f()` shapes where the blank slot
// holds an Outage or a vocabulary error, and `_ = f()` single-value
// discards.
func checkBlankAssign(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		// `a, b = f(), g()`: each RHS pairs with one LHS.
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
				continue
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				checkDroppedResults(p, call, map[int]bool{0: true})
			}
		}
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	blanks := map[int]bool{}
	any := false
	for i, lhs := range as.Lhs {
		if isBlank(lhs) {
			blanks[i] = true
			any = true
		}
	}
	if any {
		checkDroppedResults(p, call, blanks)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isOutageType matches scanner.Outage, []Outage, and pointers to them.
func isOutageType(t types.Type) bool {
	if sl, ok := t.Underlying().(*types.Slice); ok {
		t = sl.Elem()
	}
	return isNamedType(t, "geoblock/internal/scanner", "Outage")
}

// errorVocabulary reports whether fn belongs to the scan/sink
// vocabulary whose errors carry outcome information: anything exported
// by the engine, the streaming sink methods, and the table/CSV encoders
// the paper artifacts flow through.
func errorVocabulary(fn *types.Func) bool {
	switch fn.Name() {
	case "Emit", "EmitOutage", "EmitCoverage", "Flush":
		return true
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "geoblock/internal/scanner", "geoblock/internal/report":
			return true
		}
	}
	return false
}

// checkErrorfWrap flags fmt.Errorf calls that format an error operand
// without a single %w in the format string.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	fn := funcFor(p.Info, call)
	if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := p.Info.TypeOf(arg)
		if t != nil && types.Implements(t, errorIface) {
			p.Reportf(arg.Pos(), "fmt.Errorf formats an error operand without %%w: the cause chain is flattened and errors.Is/As classification downstream stops seeing it")
			return
		}
	}
}
