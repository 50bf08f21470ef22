// The poolescape analyzer. PR 6's zero-alloc hot path works because
// rented objects — release scratch, pooled crypto sources, response
// buffers — go back to their pools on every path and never outlive the
// release that rented them. A missed return is a silent steady-state
// allocation regression (the pool drains and refills from the heap); an
// escaped scratch is worse: two releases sharing one buffer corrupt each
// other's answers. Hand review caught these while the code was young;
// once batch releases cross goroutines that stops scaling.
//
// Tracked rent/return pairs:
//
//	(*mm.Mechanism).GetScratch    →  (*mm.Mechanism).PutScratch
//	(*mm.Mechanism).StreamRelease →  (*mm.AnswerStream).Close
//	mm.AcquireCryptoSource        →  mm.ReleaseCryptoSource
//	server.getBuf                 →  server.putBuf
//	(*sync.Pool).Get              →  (*sync.Pool).Put
//
// A rented value must reach its return call on every path (deferred
// returns cover panics) and must not be stored into a field or element,
// captured by a goroutine, or — for the named pairs — returned to the
// caller. Raw (*sync.Pool).Get is allowed to escape by return: that is
// the wrapper idiom the named pairs themselves are built from. Intended
// ownership transfers (the server's releaseOut carries a scratch to the
// response encoder) carry a //lint:allow with the reason.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

const (
	mmPkg     = "adaptivemm/internal/mm"
	serverPkg = "adaptivemm/internal/server"
)

// PoolEscape requires rented pool values to be returned on every path and
// to never escape their release.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "pool-rented values (release scratch, crypto sources, response buffers, sync.Pool objects) " +
		"must be returned on every path and must not be stored, goroutine-captured, or returned to callers",
	Run: runPoolEscape,
}

// rentSpec describes one acquisition's matching release.
type rentSpec struct {
	// what names the rented thing in diagnostics.
	what string
	// settles reports whether the call releases the tracked object.
	settles func(pass *Pass, call *ast.CallExpr, obj types.Object) bool
	// returnOK permits escape-by-return (the sync.Pool wrapper idiom).
	returnOK bool
}

// rentSpecFor recognizes an acquisition call and returns its spec.
func rentSpecFor(pass *Pass, call *ast.CallExpr) (rentSpec, bool) {
	obj := calleeObj(pass.TypesInfo, call)
	if obj == nil {
		return rentSpec{}, false
	}
	switch {
	case isMethodOn(obj, mmPkg, "Mechanism", "GetScratch"):
		return rentSpec{
			what: "release scratch from GetScratch",
			settles: func(pass *Pass, c *ast.CallExpr, o types.Object) bool {
				return releasesVia(pass, c, o, func(callee types.Object) bool {
					return isMethodOn(callee, mmPkg, "Mechanism", "PutScratch")
				})
			},
		}, true
	case isMethodOn(obj, mmPkg, "Mechanism", "StreamRelease"):
		// StreamRelease hands the caller an AnswerStream that owns a
		// pooled release scratch; Close is its put. Unlike the other
		// pairs the release is a method on the rented value itself, so
		// the receiver — not an argument — must be the tracked object.
		return rentSpec{
			what: "answer stream from StreamRelease (owns a pooled release scratch)",
			settles: func(pass *Pass, c *ast.CallExpr, o types.Object) bool {
				return closesVia(pass, c, o, func(callee types.Object) bool {
					return isMethodOn(callee, mmPkg, "AnswerStream", "Close")
				})
			},
		}, true
	case isPkgFunc(obj, mmPkg, "AcquireCryptoSource"):
		return rentSpec{
			what: "pooled crypto source from AcquireCryptoSource",
			settles: func(pass *Pass, c *ast.CallExpr, o types.Object) bool {
				return releasesVia(pass, c, o, func(callee types.Object) bool {
					return isPkgFunc(callee, mmPkg, "ReleaseCryptoSource")
				})
			},
		}, true
	case isPkgFunc(obj, serverPkg, "getBuf"):
		return rentSpec{
			what: "pooled response buffer from getBuf",
			settles: func(pass *Pass, c *ast.CallExpr, o types.Object) bool {
				return releasesVia(pass, c, o, func(callee types.Object) bool {
					return isPkgFunc(callee, serverPkg, "putBuf")
				})
			},
		}, true
	case isMethodOn(obj, "sync", "Pool", "Get"):
		return rentSpec{
			what:     "sync.Pool value from Get",
			returnOK: true, // the wrapper idiom: GetScratch/getBuf return what they rent
			settles: func(pass *Pass, c *ast.CallExpr, o types.Object) bool {
				return releasesVia(pass, c, o, func(callee types.Object) bool {
					return isMethodOn(callee, "sync", "Pool", "Put")
				})
			},
		}, true
	}
	return rentSpec{}, false
}

// closesVia reports whether call is a matching release invoked as a
// method on the tracked object itself (st.Close() settles st).
func closesVia(pass *Pass, call *ast.CallExpr, obj types.Object, isReleaser func(types.Object) bool) bool {
	callee := calleeObj(pass.TypesInfo, call)
	if callee == nil || !isReleaser(callee) {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && refersTo(pass.TypesInfo, sel.X, obj)
}

// releasesVia reports whether call is a matching release with the tracked
// object among its arguments.
func releasesVia(pass *Pass, call *ast.CallExpr, obj types.Object, isReleaser func(types.Object) bool) bool {
	callee := calleeObj(pass.TypesInfo, call)
	if callee == nil || !isReleaser(callee) {
		return false
	}
	for _, arg := range call.Args {
		if refersTo(pass.TypesInfo, arg, obj) {
			return true
		}
	}
	return false
}

func runPoolEscape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fn := range funcBodies(f) {
			checkRentsIn(pass, fn.body)
		}
	}
	return nil
}

// checkRentsIn finds pool acquisitions in one function body and
// flow-checks each.
func checkRentsIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		// The rent call may sit under a type assertion:
		// pool.Get().(*rowJob).
		rhs := ast.Unparen(assign.Rhs[0])
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			if len(assign.Lhs) == 2 {
				// Comma-ok assert: on the !ok path nothing was rented (the
				// pool was empty), so neither outcome is trackable here. This
				// is the wrapper fallback idiom:
				//   if sc, ok := pool.Get().(*T); ok { return sc }
				//   return &T{}
				return true
			}
			rhs = ast.Unparen(ta.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return true
		}
		spec, ok := rentSpecFor(pass, call)
		if !ok {
			return true
		}
		if len(assign.Lhs) == 0 {
			return true
		}
		ident, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
		if !ok || ident.Name == "_" {
			return true // comma-ok Get or discarded: nothing trackable
		}
		obj := pass.TypesInfo.Defs[ident]
		if obj == nil {
			obj = pass.TypesInfo.Uses[ident]
		}
		if obj == nil {
			return true
		}
		// The companion error of `st, err := m.StreamRelease(...)`: in a
		// branch guarded by err != nil nothing was rented.
		var errObj types.Object
		if len(assign.Lhs) == 2 {
			if errIdent, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident); ok && errIdent.Name != "_" {
				errObj = pass.TypesInfo.Defs[errIdent]
				if errObj == nil {
					errObj = pass.TypesInfo.Uses[errIdent]
				}
			}
		}
		checkFlow(pass.TypesInfo, body, assign, obj, flowHooks{
			companionErr: errObj,
			settles: func(call *ast.CallExpr) bool {
				return spec.settles(pass, call, obj)
			},
			onReturn: func(ret *ast.ReturnStmt, refs bool) bool {
				if !refs {
					pass.Reportf(ret.Pos(),
						"%s (line %d) is not returned to its pool before this return",
						spec.what, pass.Fset.Position(assign.Pos()).Line)
					return false
				}
				if spec.returnOK {
					return true
				}
				pass.Reportf(ret.Pos(),
					"%s escapes: returned to the caller; the value is only valid until its pool reuses it",
					spec.what)
				return false
			},
			// Escapes are reported once and then treated as settled so one
			// bad rent does not cascade into a report at every later
			// statement.
			onGo: func(g *ast.GoStmt) bool {
				pass.Reportf(g.Pos(),
					"%s is captured by a goroutine: the goroutine may outlive the release that rented it",
					spec.what)
				return true
			},
			onStore: func(a *ast.AssignStmt) bool {
				pass.Reportf(a.Pos(),
					"%s is stored outside the function: pooled values must not outlive their release",
					spec.what)
				return true
			},
			report: func(pos token.Pos, where string) {
				pass.Reportf(pos,
					"%s is not returned to its pool on all paths (unsettled at %s); prefer a deferred put",
					spec.what, where)
			},
		})
		return true
	})
}
