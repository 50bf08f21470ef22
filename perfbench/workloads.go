package main

import (
	"math"
	"math/rand"

	"adaptivemm/internal/dataset"
)

// workloadDef is one benchmark workload: a declared query workload, the
// data it is released over, and how its releases are batched.
type workloadDef struct {
	name string
	// spec is the workload spec POST /design receives (see internal/wio).
	spec string
	// batch is the number of estimate-mode releases per POST /release.
	batch int
	// rmseReleases is how many releases the untimed accuracy phase makes.
	rmseReleases int
	// setups and restarts are how many cold set-ups and store restarts an
	// untraced run times, spread over its rounds, on top of the set-up and
	// restart that bring up its timed server; their medians are reported.
	setups, restarts int
	// census selects dataset.CensusLike over a synthetic 1-D histogram.
	census bool
	why    string
}

// exactTol bounds max|W·x̂ − W·x| / max(1, max|W·x|) for the release at
// ε = 1e6, where noise is ~1e-5 of a count and the solve decides.
const exactTol = 1e-6

// rounds is how many slices an untraced run's timed phase is cut into.
// Each round first times its share of the cold set-ups and restarts, so
// every metric samples the host across the whole run rather than in one
// burst; host speed drifts on a scale of seconds.
const rounds = 15

// batchParallelism is the server-side concurrency of a batch, and the
// GOMAXPROCS the benchmark runs under.
const batchParallelism = 2

var workloads = []workloadDef{
	{
		name: "range1d-batch", spec: "allrange:1024", batch: 64,
		rmseReleases: 128, setups: 30, restarts: 30,
		why: "server path: design ~1ms and exact tree solve ~11us, so request decode, the ~1.5MB response encode, accountant and noise do the work",
	},
	{
		name: "census-3d", spec: "allrange:8x16x16", batch: 2, census: true,
		rmseReleases: 64, setups: 4, restarts: 45,
		why: "compute-bound CGLS over a Kronecker strategy on Census 8x16x16; principal-vectors design dominates set-up",
	},
	{
		name: "census-rangemarg", spec: "rangemarginals:2:8x16x16", batch: 1, census: true,
		rmseReleases: 16, setups: 6, restarts: 15,
		why: "memory-bound normal-CG over a dense 2048x2048 Gram; its 33.5MB plan entry dominates restart",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// histogram returns the workload's data vector for a seed. The 1-D
// workload gets 1024 log-normal counts (median 200); the Census workloads
// get dataset.CensusLike with every cell independently jittered by up to
// ±5%, so each seed is a distinct input of the same shape, total and skew.
func (w workloadDef) histogram(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	if !w.census {
		x := make([]float64, 1024)
		for i := range x {
			x[i] = math.Round(200 * math.Exp(rng.NormFloat64()))
		}
		return x
	}
	x := append([]float64(nil), dataset.CensusLike().X...)
	for i := range x {
		x[i] = math.Round(x[i] * (1 + 0.05*(2*rng.Float64()-1)))
	}
	return x
}
