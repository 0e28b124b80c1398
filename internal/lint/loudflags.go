package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/lint/analysis"
)

// LoudFlags extends the CLI discipline from PRs 6/7 — "reject
// silently-ignored combos" — to every flag: a registered flag whose value is
// never read is a promise to the user that the program does not keep.
var LoudFlags = &analysis.Analyzer{
	Name: "loudflags",
	Doc: "every registered CLI flag must be read by a use or validation site — a flag that parses but changes nothing is a silent lie" + `

In every package — CLIs and the libraries that register flags for them —
every flag registration (flag.String/Int/..., the ...Var forms,
flag.Var/TextVar, and the same methods on a *flag.FlagSet) must bind a
variable or struct field that is read somewhere outside the registration
itself: a variable is read when it is referenced, a field when it is
selected (x.f) in the registering package. flag.Func/BoolFunc
registrations carry their use in the callback and always pass.
Registrations whose target the analyzer cannot track (a flag.Value built
elsewhere) are given the benefit of the doubt. Waive a deliberately inert
flag with //lint:flagok <why>.`,
	Run: runLoudFlags,
}

// flagValueFns return a pointer to the value; the flag name is argument 0.
var flagValueFns = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// flagVarFns take a target pointer/value first; the flag name is argument 1.
var flagVarFns = map[string]bool{
	"BoolVar": true, "DurationVar": true, "Float64Var": true, "IntVar": true,
	"Int64Var": true, "StringVar": true, "UintVar": true, "Uint64Var": true,
	"Var": true, "TextVar": true,
}

type flagReg struct {
	name string        // the flag's command-line name, best effort
	obj  types.Object  // the variable or field holding the value, nil if untrackable
	call *ast.CallExpr // the registration call
	span ast.Node      // the registration: the call, or the assignment binding its result
}

func runLoudFlags(pass *analysis.Pass) (any, error) {
	w := newWaivers(pass)

	var regs []flagReg
	// claimed maps registration calls already bound to a variable through an
	// assignment or var declaration, so the bare-call scan below only sees
	// discarded registrations.
	claimed := map[*ast.CallExpr]bool{}

	flagFn := func(call *ast.CallExpr) (*types.Func, bool) {
		f := calleeFunc(pass, call)
		if f == nil || pkgPathOf(f) != "flag" {
			return nil, false
		}
		return f, true
	}
	flagName := func(call *ast.CallExpr, idx int) string {
		if idx < len(call.Args) {
			if lit, ok := ast.Unparen(call.Args[idx]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					return s
				}
			}
		}
		return "?"
	}
	// objOf resolves a registration target — x, x.f, or either behind
	// parens — to its variable or field, nil if untrackable.
	objOf := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return nil
			}
			if o := pass.TypesInfo.Defs[e]; o != nil {
				return o
			}
			return pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
		}
		return nil
	}

	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// x := flag.String(...) / x = flag.String(...)
				if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				f, ok := flagFn(call)
				if !ok || !flagValueFns[f.Name()] {
					return true
				}
				claimed[call] = true
				// obj == nil here means _ = flag.String(...) or an
				// untrackable LHS: reported below as discarded.
				regs = append(regs, flagReg{name: flagName(call, 0), obj: objOf(n.Lhs[0]), call: call, span: n})
			case *ast.ValueSpec:
				// var x = flag.String(...)
				for i, v := range n.Values {
					call, ok := ast.Unparen(v).(*ast.CallExpr)
					if !ok {
						continue
					}
					f, ok := flagFn(call)
					if !ok || !flagValueFns[f.Name()] {
						continue
					}
					claimed[call] = true
					var obj types.Object
					if i < len(n.Names) {
						obj = objOf(n.Names[i])
					}
					regs = append(regs, flagReg{name: flagName(call, 0), obj: obj, call: call, span: call})
				}
			case *ast.CallExpr:
				f, ok := flagFn(n)
				if !ok {
					return true
				}
				switch {
				case flagVarFns[f.Name()]:
					var obj types.Object
					if len(n.Args) > 0 {
						if un, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
							obj = objOf(un.X)
						} else if f.Name() == "Var" {
							// flag.Var(v, ...) with an opaque flag.Value: the
							// value itself may be tracked if it is a plain
							// variable or field.
							obj = objOf(n.Args[0])
						}
					}
					if obj == nil {
						return true // untrackable target: benefit of the doubt
					}
					regs = append(regs, flagReg{name: flagName(n, 1), obj: obj, call: n, span: n})
				case flagValueFns[f.Name()] && !claimed[n]:
					// ast.Inspect visits the enclosing assignment or var
					// spec before the call, so an unclaimed value-returning
					// registration here had its pointer discarded.
					regs = append(regs, flagReg{name: flagName(n, 0), obj: nil, call: n, span: n})
				}
			}
			return true
		})
	}

	for _, reg := range regs {
		if reg.obj != nil && usedOutside(pass, reg.obj, reg.span) {
			continue
		}
		if w.waived(reg.call.Pos(), waiverFlagOK) {
			continue
		}
		what := "is registered but its value is never read"
		if reg.obj == nil {
			what = "is registered and its value pointer is discarded"
		}
		pass.Reportf(reg.call.Pos(),
			"loudflags: flag %q %s — a value the user sets would be silently ignored; wire it to a use or validation site, or waive with //lint:flagok <why>",
			reg.name, what)
	}
	return nil, nil
}

// usedOutside reports whether obj is read anywhere outside the
// registration's source range: a variable by any reference, a field by any
// selection x.f.
func usedOutside(pass *analysis.Pass, obj types.Object, reg ast.Node) bool {
	outside := func(n ast.Node) bool { return n.Pos() < reg.Pos() || n.End() > reg.End() }
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		for sel, s := range pass.TypesInfo.Selections {
			if s.Obj() == obj && outside(sel) {
				return true
			}
		}
		return false
	}
	for id, o := range pass.TypesInfo.Uses {
		if o == obj && outside(id) {
			return true
		}
	}
	return false
}
