// Package detrange implements the rjoin-lint analyzer that flags map
// iterations whose order escapes into an observable effect inside the
// deterministic packages.
//
// Go randomises map iteration order per run. Inside the replay
// contract (see lintutil.Deterministic) anything a map-range loop does
// that is sensitive to visit order — sending a message, scheduling an
// event, appending to a slice that is not subsequently sorted,
// overwriting a variable last-writer-wins, accumulating floats —
// therefore makes two runs of the same seed diverge. The engine's
// golden-digest tests catch such divergence only when a config happens
// to trip it; this analyzer catches the pattern itself.
//
// Recognised order-insensitive idioms (not flagged):
//   - loops whose only out-of-loop writes are commutative integer
//     accumulations (+=, -=, |=, &=, ^=, ++, --) or boolean-constant
//     flag sets;
//   - min/max selection guarded by a comparison with the target;
//   - writes keyed by the loop variables into another map (rebuild);
//   - appends into a slice that a later statement of the same function
//     passes to sort.* / slices.* (collect-then-sort);
//   - returns of loop-independent values.
//
// Anything else needs an explicit `//lint:ordered <reason>` directive.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"rjoin/internal/lint/directive"
	"rjoin/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flags map iterations whose order escapes into observable effects in deterministic packages",
	Run:  run,
}

// effectCalls are method/function names that inject their arguments
// into the engine's observable timeline: message sends, event
// schedules, handovers and emissions. Calling one per map entry makes
// the timeline depend on iteration order.
var effectCalls = map[string]bool{
	"Send": true, "MultiSend": true, "SendKeyed": true, "Broadcast": true,
	"Schedule": true, "ScheduleAt": true, "After": true, "AfterBg": true,
	"Every": true, "EveryBg": true, "Push": true, "Publish": true,
	"PublishTuple": true, "Emit": true, "Enqueue": true, "Handoff": true,
	"ReplicateTo": true, "Deliver": true, "Submit": true, "SubmitQuery": true,
	"Observe": false, // histogram buckets are commutative
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.Deterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	ix := directive.Build(pass)
	ix.Report(pass)
	for _, f := range pass.Files {
		lintutil.WalkStack(f, func(stack []ast.Node, n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			checkLoop(pass, ix, stack, rs)
			return true
		})
	}
	return nil, nil
}

// checkLoop reports every order-escaping effect in one map-range body.
func checkLoop(pass *analysis.Pass, ix *directive.Index, stack []ast.Node, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := info.ObjectOf(id); o != nil {
				loopVars[o] = true
			}
		}
	}
	outer := func(o types.Object) bool {
		// An object is loop-local when it is declared inside the range
		// statement (including the key/value vars themselves).
		if o == nil || loopVars[o] {
			return false
		}
		return !(rs.Pos() <= o.Pos() && o.Pos() < rs.End())
	}
	report := func(pos token.Pos, format string, args ...interface{}) {
		if ix.Suppressed("detrange", pos) {
			return
		}
		pass.Reportf(pos, "map iteration order escapes: "+format+" (sort first, or document with //lint:ordered <reason>)", args...)
	}

	enclosing := lintutil.EnclosingFunc(stack)

	lintutil.WalkStack(rs.Body, func(bodyStack []ast.Node, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside map range")
		case *ast.CallExpr:
			if callee := lintutil.CalleeObject(info, n); callee != nil && effectCalls[callee.Name()] {
				report(n.Pos(), "%s call inside map range puts entries on the timeline in iteration order", callee.Name())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsAny(info, res, loopVars) {
					report(n.Pos(), "return of a value selected by iteration order")
					break
				}
			}
		case *ast.AssignStmt:
			checkAssign(info, report, enclosing, rs, bodyStack, n, outer, loopVars)
		}
		return true
	})
}

// checkAssign classifies one assignment inside the loop body.
func checkAssign(info *types.Info, report func(token.Pos, string, ...interface{}), enclosing ast.Node, rs *ast.RangeStmt, stack []ast.Node, as *ast.AssignStmt, outer func(types.Object) bool, loopVars map[types.Object]bool) {
	if as.Tok == token.DEFINE {
		return
	}
	for i, lhs := range as.Lhs {
		lhs = ast.Unparen(lhs)
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}

		// Indexed writes: m2[k] = v keyed by loop vars is the standard
		// order-independent rebuild; writing through an outer cursor
		// (out[i] with i mutated in the loop) is an append in disguise.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if mentionsAny(info, idx.Index, loopVars) {
				continue
			}
			if o := lintutil.BaseObject(info, idx.Index); o != nil && outer(o) && writesTo(info, rs.Body, o) {
				report(as.Pos(), "write through cursor %s advanced inside the loop records entries in iteration order", o.Name())
			}
			continue
		}

		// Outer-ness is judged at the root of the selector chain: a
		// write to a.Values where a is the loop variable stays inside
		// the iteration. The specific field object still names the
		// finding and anchors the collect-then-sort search.
		if !outer(lintutil.RootObject(info, lhs)) {
			continue
		}
		obj := lintutil.BaseObject(info, lhs)
		if obj == nil {
			continue
		}
		t := info.TypeOf(lhs)

		switch as.Tok {
		case token.ASSIGN:
			// append-to-outer-slice: escape unless sorted later.
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
				if !sortedAfter(info, enclosing, rs, obj) {
					report(as.Pos(), "append to %s records entries in iteration order and no later sort restores one", obj.Name())
				}
				continue
			}
			if isOrderInvariant(info, rhs, loopVars) {
				continue // flag = true, x = nil, ... — same for every order
			}
			if guardedMinMax(info, stack, obj) {
				continue
			}
			report(as.Pos(), "last-writer-wins overwrite of %s depends on iteration order", obj.Name())
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			if t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok {
					if b.Info()&types.IsInteger != 0 {
						continue // commutative, associative: order-free
					}
					if b.Info()&types.IsFloat != 0 {
						report(as.Pos(), "float accumulation into %s rounds differently per iteration order", obj.Name())
						continue
					}
					if b.Info()&types.IsString != 0 {
						report(as.Pos(), "string concatenation into %s depends on iteration order", obj.Name())
						continue
					}
				}
			}
			report(as.Pos(), "compound assignment to %s may depend on iteration order", obj.Name())
		case token.MUL_ASSIGN:
			if t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					continue
				}
			}
			report(as.Pos(), "non-integer product accumulation into %s depends on iteration order", obj.Name())
		case token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
			report(as.Pos(), "order-sensitive compound assignment to %s", obj.Name())
		}
	}
}

// isOrderInvariant reports whether an assigned value is the same
// regardless of which loop entry performs the assignment: constants,
// nil, and expressions mentioning no loop variable.
func isOrderInvariant(info *types.Info, e ast.Expr, loopVars map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	if info.Types[e].Value != nil {
		return true // constant-folded
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	// `found = true`-style: not constant-folded only in odd cases;
	// the common remaining invariant form is an expression with no
	// loop-variable dependence — but loop-independent non-constants
	// can still differ between iterations via aliasing, so only allow
	// basic literals and idents of consts.
	switch ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	}
	return false
}

// guardedMinMax recognises the two guarded-overwrite idioms that are
// order-independent: extremum selection (`if v < best { best = v }`,
// any comparison direction, anywhere in the guarding condition) and
// lazy once-only initialisation (`if m == nil { m = make(...) }`).
// In both cases the guard must mention the assignment target.
func guardedMinMax(info *types.Info, stack []ast.Node, target types.Object) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok {
				return !found
			}
			switch cmp.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				if lintutil.Mentions(info, cmp, target) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// sortedAfter reports whether, after the range loop, the enclosing
// function passes obj — or a local derived from it, like the
// tail-slice `chunk := m.series[start:]` — to a sort.* / slices.*
// call or a helper whose name starts with "sort": the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, enclosing ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	if enclosing == nil {
		return false
	}
	watched := map[types.Object]bool{obj: true}
	mentionsWatched := func(n ast.Node) bool {
		for o := range watched {
			if lintutil.Mentions(info, n, o) {
				return true
			}
		}
		return false
	}
	found := false
	// Nodes before the loop's end are skipped at the case level rather
	// than pruned: a sibling after the loop lives under the same
	// enclosing block node.
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() < rs.End() {
				return true
			}
			// Track aliases: locals assigned from expressions that
			// mention a watched object.
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if i < len(n.Rhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil && mentionsWatched(rhs) {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if o := info.ObjectOf(id); o != nil {
							watched[o] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if n.Pos() < rs.End() || !isSortCall(info, n) {
				return true
			}
			for _, arg := range n.Args {
				if mentionsWatched(arg) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if callee := lintutil.CalleeObject(info, call); callee != nil {
		if pkg := callee.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
			return true
		}
		if strings.HasPrefix(strings.ToLower(callee.Name()), "sort") {
			return true
		}
	}
	return false
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// writesTo reports whether any ++/--/assignment inside root mutates obj.
func writesTo(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if lintutil.BaseObject(info, n.X) == obj {
				found = true
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if lintutil.BaseObject(info, l) == obj {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func mentionsAny(info *types.Info, root ast.Node, objs map[types.Object]bool) bool {
	for o := range objs {
		if lintutil.Mentions(info, root, o) {
			return true
		}
	}
	return false
}
