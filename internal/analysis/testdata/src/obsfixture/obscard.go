// Fixture for obscard: metric names and registration-time label values
// must be compile-time constants. Imports the real obs package, so this
// is literally the unbounded-cardinality bug class failing the lint
// build.

package obsfixture

import (
	"fmt"

	"adaptivemm/internal/obs"
)

const goodName = "am_good_total"

// register exercises the constant and non-constant registration shapes.
func register(r *obs.Registry, dataset string, i int) {
	// Constant names and label values pass.
	r.Counter("am_requests_total", "requests", obs.L("route", "answer"))
	r.Gauge(goodName+"_gauge", "derived constant name is fine")
	r.Histogram("am_latency_seconds", "latency", obs.DefTimeBuckets, obs.L("stage", "infer"))

	// A name computed from data is the unbounded-series bug.
	r.Counter("am_"+dataset+"_total", "per-dataset family") // want `metric name is not a compile-time constant`

	// A label value computed from data is the same bug on one family.
	r.Counter("am_requests_total", "requests", obs.L("dataset", dataset))                         // want `label value is not a compile-time constant`
	r.Gauge("am_shard_depth", "per-shard", obs.L("shard", fmt.Sprintf("%d", i)))                  // want `label value is not a compile-time constant`
	r.Histogram("am_rpc_seconds", "rpc", obs.DefTimeBuckets, obs.L(dataset, "v"))                 // want `label name is not a compile-time constant`
	r.GaugeFunc("am_fn_"+dataset, "dynamic gaugefunc name", func(func(float64, ...obs.Label)) {}) // want `metric name is not a compile-time constant`

	// A documented bounded set is the escape hatch.
	names := [2]string{"a", "b"}
	for idx := range names {
		//lint:allow obscard: label values index a compile-time-constant table
		r.Counter("am_table_total", "by table", obs.L("name", names[idx]))
	}

	// Collect-at-scrape emit callbacks are exempt: their labels are
	// rebuilt each scrape and dynamic by design.
	r.GaugeFunc("am_spent", "by dataset", func(emit func(float64, ...obs.Label)) {
		emit(1, obs.L("dataset", dataset))
	})
}
