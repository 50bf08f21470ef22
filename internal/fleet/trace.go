// Package fleet declares TraceHeader and nothing else. The package
// stays only because perfbench imports the constant at this path and
// perfbench changes only with the benchmark; the next benchmark change
// moves TraceHeader to package obs and deletes this package.
package fleet

// TraceHeader is the request header through which a client supplies a
// trace parent for /answer, /release and streamed releases: the
// request's trace at GET /debug/traces records it as "parent".
const TraceHeader = "X-AM-Trace"
