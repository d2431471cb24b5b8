// Package shardsafe implements the rjoin-lint analyzer that guards the
// engine's per-shard lane state.
//
// Under deterministic parallel execution (sim.Shards logical shards,
// barrier-merged sub-rounds) components accumulate handler-side state
// in lane arrays: one slot per shard plus one for coordinator context,
// sized by sim.ShardSlots or sim.Shards. The contract has two halves:
//
//  1. Handler context may touch only its own slot, reached through
//     sim.ShardOfID / Engine.ShardOf (or a value derived from one — by
//     convention a variable or field whose name mentions shard, slot,
//     lane or src), optionally offset by one: the aggregate-first
//     layout of the overlay's lanes, the core engine's accounting slots
//     and the observability recorder's cells keeps the aggregate, which
//     serves NoShard (-1), in slot 0 and shard s in slot s+1.
//  2. Cross-slot access — iterating the lanes, or indexing with
//     anything else — is reserved for barrier functions: the
//     Sync/Flush/Drain/merge family that runs in coordinator context
//     with no handlers in flight.
//
// The analyzer finds every lane-state container in the package (struct
// fields or variables of array type [ShardSlots]T / [Shards]T, and
// slices allocated with make(..., sim.Shards) or make(..., ShardSlots))
// and flags writes that satisfy neither half. Reads are deliberately
// not flagged: read-only cross-slot access from the wrong context is a
// race too, but flagging it would drown the one-report-per-bug signal
// in telemetry noise; the race detector owns that half.
//
// The sim package itself is exempt: it implements the barrier, so its
// internals are the mechanism the contract describes, not a client of
// it. Legitimate driver-context cross-slot writers outside the naming
// convention carry //lint:allow shardsafe <reason>.
package shardsafe

import (
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"

	"rjoin/internal/lint/directive"
	"rjoin/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc:  "flags writes to per-shard lane state outside own-shard indexing or barrier functions",
	Run:  run,
}

// barrierFunc matches function names that by convention run in
// coordinator context at a sync barrier and may do cross-slot work.
var barrierFunc = regexp.MustCompile(`(?i)(sync|merge|flush|drain|snapshot|reset|sweep)`)

// shardName matches identifier names that by convention carry a
// shard-slot index derived in handler context.
var shardName = regexp.MustCompile(`(?i)(shard|slot|lane|src)`)

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	if !lintutil.Deterministic(path) || strings.HasSuffix(path, "internal/sim") {
		return nil, nil
	}
	ix := directive.Build(pass)
	ix.Report(pass)

	lanes, initFns := laneObjects(pass)
	if len(lanes) == 0 {
		return nil, nil
	}
	// Writes inside the function that allocates a lane are its
	// initialisation: no handler can hold a reference yet.
	inInitFunc := func(stack []ast.Node, base types.Object) bool {
		fn := lintutil.EnclosingFunc(stack)
		return fn != nil && initFns[base] == fn
	}

	for _, f := range pass.Files {
		lintutil.WalkStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				base := lintutil.BaseObject(pass.TypesInfo, n.X)
				if base == nil || !lanes[base] {
					return true
				}
				if inBarrierFunc(stack) || inInitFunc(stack, base) || allowedIndex(pass.TypesInfo, stack, n.Index) {
					return true
				}
				if insideFlaggedRange(pass.TypesInfo, stack, base, n.Index) {
					return true // the cross-slot loop diagnostic covers it
				}
				if lintutil.IsWriteTarget(stack, n) && !ix.Suppressed("shardsafe", n.Pos()) {
					pass.Reportf(n.Pos(), "write to per-shard lane %s indexed by %s: handler context must index by its own shard (or run in a barrier function, or document with //lint:allow shardsafe <reason>)",
						base.Name(), exprString(n.Index))
				}
			case *ast.RangeStmt:
				base := lintutil.BaseObject(pass.TypesInfo, n.X)
				if base == nil || !lanes[base] || inBarrierFunc(stack) || inInitFunc(stack, base) {
					return true
				}
				if writesLane(pass.TypesInfo, n, base) && !ix.Suppressed("shardsafe", n.Pos()) {
					pass.Reportf(n.Pos(), "cross-slot write loop over per-shard lane %s outside a barrier function: only the Sync/merge family may touch other shards' slots (or document with //lint:allow shardsafe <reason>)",
						base.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// laneObjects collects the package's lane-state containers — objects
// whose type is an array sized by a Shards/ShardSlots constant, or
// which are assigned make(...) with such a length — and, for the
// make-allocated ones, the function the allocation lives in.
func laneObjects(pass *analysis.Pass) (map[types.Object]bool, map[types.Object]ast.Node) {
	lanes := map[types.Object]bool{}
	initFns := map[types.Object]ast.Node{}
	for _, f := range pass.Files {
		lintutil.WalkStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if at, ok := n.Type.(*ast.ArrayType); ok && isShardConst(pass.TypesInfo, at.Len) {
					for _, name := range n.Names {
						if o := pass.TypesInfo.ObjectOf(name); o != nil {
							lanes[o] = true
						}
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						continue
					}
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
						continue
					}
					if !isShardConst(pass.TypesInfo, call.Args[1]) {
						continue
					}
					if i < len(n.Lhs) {
						if o := lintutil.BaseObject(pass.TypesInfo, n.Lhs[i]); o != nil {
							lanes[o] = true
							if fn := lintutil.EnclosingFunc(stack); fn != nil {
								initFns[o] = fn
							}
						}
					}
				}
			}
			return true
		})
	}
	return lanes, initFns
}

// isShardConst reports whether an expression resolves to a constant
// named Shards or ShardSlots (any package — in practice sim's).
func isShardConst(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	o := lintutil.BaseObject(info, e)
	if _, isConst := o.(*types.Const); !isConst {
		return false
	}
	return o.Name() == "Shards" || o.Name() == "ShardSlots"
}

// allowedIndex reports whether an index expression follows the
// handler-context discipline: a ShardOfID/ShardOf call, a
// conventionally named shard variable, or a local assigned from such a
// call earlier in the enclosing function — any of them plus one for the
// aggregate-first layout.
func allowedIndex(info *types.Info, stack []ast.Node, idx ast.Expr) bool {
	idx = ast.Unparen(idx)
	if be, ok := idx.(*ast.BinaryExpr); ok && be.Op == token.ADD {
		if one, ok := ast.Unparen(be.Y).(*ast.BasicLit); ok && one.Kind == token.INT && one.Value == "1" {
			idx = ast.Unparen(be.X)
		}
	}
	if isShardMapCall(info, idx) {
		return true
	}
	o := lintutil.BaseObject(info, idx)
	if o == nil {
		return false
	}
	if shardName.MatchString(o.Name()) {
		return true
	}
	// Local assigned from a ShardOfID/ShardOf call anywhere in the
	// enclosing function before this use.
	fn := lintutil.EnclosingFunc(stack)
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() > idx.Pos() {
			return !found
		}
		for i, lhs := range as.Lhs {
			if lintutil.BaseObject(info, lhs) != o {
				continue
			}
			var rhs ast.Expr
			if i < len(as.Rhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs != nil && isShardMapCall(info, ast.Unparen(rhs)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprString renders a small expression for a diagnostic message.
func exprString(e ast.Expr) string {
	var buf strings.Builder
	if err := format.Node(&buf, token.NewFileSet(), e); err != nil {
		return "?"
	}
	return buf.String()
}

func isShardMapCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := lintutil.CalleeObject(info, call)
	if callee == nil {
		return false
	}
	switch callee.Name() {
	case "ShardOfID", "ShardOf":
		return true
	}
	return false
}

// insideFlaggedRange reports whether an index expression is the loop
// variable of an enclosing range over the same lane container — the
// range statement already carries the diagnostic, one report per loop.
func insideFlaggedRange(info *types.Info, stack []ast.Node, base types.Object, idx ast.Expr) bool {
	idxObj := lintutil.BaseObject(info, ast.Unparen(idx))
	if idxObj == nil {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		rs, ok := stack[i].(*ast.RangeStmt)
		if !ok {
			continue
		}
		if lintutil.BaseObject(info, rs.X) != base {
			continue
		}
		if key, ok := rs.Key.(*ast.Ident); ok && info.ObjectOf(key) == idxObj {
			return true
		}
	}
	return false
}

func inBarrierFunc(stack []ast.Node) bool {
	name := lintutil.EnclosingFuncName(stack)
	return name != "" && barrierFunc.MatchString(name)
}

// writesLane reports whether a range over the lane container writes to
// it (directly, through the value variable, or through a pointer taken
// from an element).
func writesLane(info *types.Info, rs *ast.RangeStmt, base types.Object) bool {
	var valObj types.Object
	if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
		valObj = info.ObjectOf(id)
	}
	wrote := false
	lintutil.WalkStack(rs.Body, func(stack []ast.Node, n ast.Node) bool {
		if wrote {
			return false
		}
		switch n := n.(type) {
		case *ast.IndexExpr:
			if lintutil.BaseObject(info, n.X) == base && lintutil.IsWriteTarget(stack, n) {
				wrote = true
			}
		case *ast.Ident:
			if valObj != nil && info.ObjectOf(n) == valObj && lintutil.IsWriteTarget(stack, n) {
				wrote = true
			}
		case *ast.UnaryExpr:
			// &lane[i] escaping into a pointer counts as a write path.
			if n.Op.String() == "&" {
				if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && lintutil.BaseObject(info, idx.X) == base {
					wrote = true
				}
			}
		}
		return true
	})
	return wrote
}
