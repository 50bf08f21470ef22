// The obscard analyzer. The metrics registry pre-registers every series
// at startup and recording is lock-free atomics on those fixed series;
// that economy only holds if metric names and registration-time label
// values are drawn from sets the reviewer can see are bounded. A name or
// label value computed from request data turns the registry into an
// unbounded allocation sink (capped at runtime by maxSeriesPerFamily,
// but every dropped series is telemetry silently lost). This analyzer
// makes the boundedness reviewable: at every Registry registration call
// the metric name must be a compile-time constant, and so must the
// values of obs.L labels passed to it. Dynamic-but-bounded values
// (indexing a fixed table, iterating a startup-time registry) are
// documented exceptions via //lint:allow. Collect-at-scrape emit
// callbacks inside GaugeFunc are exempt: their label sets are rebuilt
// fresh each scrape and carry genuinely dynamic values (dataset names)
// by design.

package analysis

import (
	"go/ast"
	"go/types"
)

// obsRegistrationMethods are the *obs.Registry methods that create
// series; their name argument and obs.L label values must be
// compile-time constants.
var obsRegistrationMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"GaugeFunc": true,
}

const obsPkgPath = "adaptivemm/internal/obs"

// ObsCard requires compile-time-constant metric names and label values
// at metrics-registry registration sites.
var ObsCard = &Analyzer{
	Name: "obscard",
	Doc: "require compile-time-constant metric names and label values at obs.Registry registration calls: " +
		"dynamic names or labels make series cardinality unbounded (dropped series = telemetry silently lost)",
	Run: runObsCard,
}

func runObsCard(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isObsRegistration(pass.TypesInfo, call) {
				return true
			}
			if len(call.Args) > 0 && !isConstExpr(pass.TypesInfo, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name is not a compile-time constant: dynamic names make the series set unbounded; use a const (or //lint:allow with why the set is bounded)")
			}
			for _, arg := range call.Args[1:] {
				l, ok := asObsLabelCall(pass.TypesInfo, arg)
				if !ok || len(l.Args) != 2 {
					continue
				}
				if !isConstExpr(pass.TypesInfo, l.Args[0]) {
					pass.Reportf(l.Args[0].Pos(),
						"label name is not a compile-time constant at a registration site")
				}
				if !isConstExpr(pass.TypesInfo, l.Args[1]) {
					pass.Reportf(l.Args[1].Pos(),
						"label value is not a compile-time constant at a registration site: dynamic values make series cardinality unbounded; enumerate a fixed set (or //lint:allow with why the set is bounded)")
				}
			}
			return true
		})
	}
	return nil
}

// isObsRegistration reports whether call is one of the series-creating
// methods on *obs.Registry.
func isObsRegistration(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObj(info, call).(*types.Func)
	if !ok || !obsRegistrationMethods[fn.Name()] || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	return isNamed && named.Obj().Name() == "Registry"
}

// asObsLabelCall unwraps arg as a call to obs.L.
func asObsLabelCall(info *types.Info, arg ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if obj := calleeObj(info, call); obj == nil || !isPkgFunc(obj, obsPkgPath, "L") {
		return nil, false
	}
	return call, true
}

// isConstExpr reports whether the type checker evaluated e to a
// constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
