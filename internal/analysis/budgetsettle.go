// The budgetsettle analyzer. The accountant's contract is
// check-reserve-commit: Reserve claims budget atomically, and exactly one
// of Commit or Refund must follow on *every* path — a reservation leaked
// on an error return (or a panic) permanently shrinks the dataset's
// available budget, refusing future releases that the cap actually
// admits. PR 2's and PR 3's review passes each caught one of these by
// hand; this analyzer turns the next one into a build failure.
//
// The check: for every call to accountant.Reserve whose result is bound
// to a variable, that variable must reach a Commit or Refund on every
// control-flow path of the enclosing function. A deferred settle (defer
// res.Refund(), or a deferred closure that settles) is the preferred
// spelling — it also covers panics. Transferring the reservation out of
// the function (returning it, storing it, passing it to another function)
// moves the obligation to the receiver and is accepted.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// accountantPkg is the package whose Reserve/Commit/Refund the analyzer
// tracks.
const accountantPkg = "adaptivemm/internal/accountant"

// BudgetSettle requires every accountant.Reserve to be settled on all
// paths.
var BudgetSettle = &Analyzer{
	Name: "budgetsettle",
	Doc: "every accountant.Reserve must reach Commit or Refund on all control-flow paths " +
		"(prefer defer res.Refund(): it also covers panics); a leaked reservation permanently shrinks the budget",
	Run: runBudgetSettle,
}

func runBudgetSettle(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fn := range funcBodies(f) {
			checkReservesIn(pass, fn.body)
		}
	}
	return nil
}

// checkReservesIn finds Reserve acquisitions in one function body and
// flow-checks each.
func checkReservesIn(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObj(pass.TypesInfo, call)
		if obj == nil || !isMethodOn(obj, accountantPkg, "Accountant", "Reserve") {
			return true
		}
		if len(assign.Lhs) == 0 {
			return true
		}
		resIdent, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if resIdent.Name == "_" {
			pass.Reportf(assign.Pos(),
				"accountant.Reserve result discarded: the reservation can never be committed or refunded; bind it and settle it")
			return true
		}
		resObj := pass.TypesInfo.Defs[resIdent]
		if resObj == nil {
			resObj = pass.TypesInfo.Uses[resIdent] // plain = assignment to an existing var
		}
		if resObj == nil {
			return true
		}
		// The companion error of `res, err := acct.Reserve(...)`: on the
		// error path res is the zero Reservation and there is nothing to
		// settle, so a return that propagates (or wraps) err is not a leak.
		var errObj types.Object
		if len(assign.Lhs) == 2 {
			if errIdent, ok := ast.Unparen(assign.Lhs[1]).(*ast.Ident); ok && errIdent.Name != "_" {
				errObj = pass.TypesInfo.Defs[errIdent]
				if errObj == nil {
					errObj = pass.TypesInfo.Uses[errIdent]
				}
			}
		}
		checkFlow(pass.TypesInfo, body, assign, resObj, flowHooks{
			settles: func(call *ast.CallExpr) bool {
				return settlesReservation(pass, call, resObj)
			},
			// Returning, storing, goroutine hand-off or passing the
			// reservation to another function transfers the settle
			// obligation to the receiver.
			onReturn: func(ret *ast.ReturnStmt, refs bool) bool {
				if refs {
					return true
				}
				if errObj != nil && refersTo(pass.TypesInfo, ret, errObj) {
					// Propagating the Reserve error: res is the zero value here.
					return true
				}
				pass.Reportf(ret.Pos(),
					"reservation from accountant.Reserve (line %d) leaks on this return: Commit or Refund it first, or defer res.Refund() at the acquisition",
					pass.Fset.Position(assign.Pos()).Line)
				return false
			},
			onGo:      func(*ast.GoStmt) bool { return true },
			onStore:   func(*ast.AssignStmt) bool { return true },
			onArgPass: func(*ast.CallExpr) bool { return true },
			report: func(pos token.Pos, where string) {
				pass.Reportf(pos,
					"reservation from accountant.Reserve is not settled on all paths (unsettled at %s): call Commit or Refund, preferably via defer res.Refund()",
					where)
			},
		})
		return true
	})
}

// settlesReservation reports whether the call is resObj.Commit() or
// resObj.Refund().
func settlesReservation(pass *Pass, call *ast.CallExpr, resObj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Commit" && sel.Sel.Name != "Refund") {
		return false
	}
	obj := calleeObj(pass.TypesInfo, call)
	if obj == nil || !isMethodOn(obj, accountantPkg, "Reservation", sel.Sel.Name) {
		return false
	}
	return refersTo(pass.TypesInfo, sel.X, resObj)
}
