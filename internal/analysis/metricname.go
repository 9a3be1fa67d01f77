package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// MetricNamePattern is the canonical shape of a memdos metric family
// name: the memdos_ namespace followed by lower_snake_case.
var MetricNamePattern = regexp.MustCompile(`^memdos_[a-z0-9_]+$`)

// metricRegisterMethods are the metrics.Registry constructors whose
// first argument is a metric family name.
var metricRegisterMethods = map[string]bool{
	"RegisterCounter":     true,
	"RegisterCounterFunc": true,
	"RegisterGaugeFunc":   true,
}

// MetricNameChecker verifies that every name handed to the metrics
// registry's Register* constructors is a compile-time string constant
// matching MetricNamePattern, so the /metrics namespace stays scrapable
// and greppable and can never be polluted by a runtime-built name.
func MetricNameChecker() *Checker {
	return &Checker{
		Name: "metricname",
		Doc:  "metric names passed to metrics.Registry constructors must be constants matching ^memdos_[a-z0-9_]+$",
		Run:  runMetricName,
	}
}

func runMetricName(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || !isRegistryConstructor(fn) {
				return true
			}
			arg := call.Args[0]
			tv, ok := info.Types[arg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(arg.Pos(),
					"metric name passed to %s is not a compile-time string constant; memdos-vet cannot audit the metric namespace",
					fn.Name())
				return true
			}
			name := constant.StringVal(tv.Value)
			if !MetricNamePattern.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q does not match %s", name, MetricNamePattern)
			}
			return true
		})
	}
}

func isRegistryConstructor(fn *types.Func) bool {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/metrics") {
		return false
	}
	if !metricRegisterMethods[fn.Name()] {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
