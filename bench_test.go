// Benchmarks regenerating every table and figure of the paper's evaluation
// (at the fast "small" scale; use cmd/ambench -scale full for paper sizes)
// plus micro-benchmarks of the pipeline's hot stages. Run with:
//
//	go test -bench=. -benchmem
package adaptivemm

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptivemm/internal/core"
	"adaptivemm/internal/domain"
	"adaptivemm/internal/experiments"
	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/strategy"
	"adaptivemm/internal/workload"
)

var benchCfg = experiments.Config{Scale: "small", Seed: 1, Trials: 2}

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkExample4(b *testing.B) { benchExperiment(b, "example4") } // Fig 2
func BenchmarkFig3a(b *testing.B)    { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)    { benchExperiment(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)    { benchExperiment(b, "fig3c") }
func BenchmarkFig3d(b *testing.B)    { benchExperiment(b, "fig3d") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig4(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// --- Micro-benchmarks of the pipeline stages ---

func BenchmarkEigenDesign64(b *testing.B)  { benchDesign(b, 64) }
func BenchmarkEigenDesign128(b *testing.B) { benchDesign(b, 128) }
func BenchmarkEigenDesign256(b *testing.B) { benchDesign(b, 256) }

func benchDesign(b *testing.B, n int) {
	w := workload.AllRange(domain.MustShape(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Design(w, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSeparation256(b *testing.B) {
	w := workload.AllRange(domain.MustShape(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EigenSeparation(w, 8, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrincipalVectors256(b *testing.B) {
	w := workload.AllRange(domain.MustShape(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PrincipalVectors(w, 16, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstOrderDesign256(b *testing.B) {
	w := workload.AllRange(domain.MustShape(256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Design(w, core.Options{Solver: core.SolverFirstOrder}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen128(b *testing.B) {
	g := workload.AllRange(domain.MustShape(128)).Gram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigen(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen512(b *testing.B) {
	g := workload.AllRange(domain.MustShape(512)).Gram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigen(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadError256(b *testing.B) {
	w := workload.AllRange(domain.MustShape(256))
	res, err := core.Design(w, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := mm.Privacy{Epsilon: 0.5, Delta: 1e-4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.Error(w, res.Strategy, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMechanismAnswer(b *testing.B) {
	w := workload.Marginals(domain.MustShape(8, 8, 2), 2)
	res, err := core.Design(w, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mech, err := mm.NewMechanism(res.Strategy)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i)
	}
	p := mm.Privacy{Epsilon: 0.5, Delta: 1e-4}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.AnswerGaussian(w, x, p, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGramAllRange512(b *testing.B) {
	shape := domain.MustShape(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.AllRange(shape).Gram()
	}
}

// --- Dense vs operator inference, and design at scale ---

// BenchmarkEstimate compares one private release (noisy strategy answers
// + least-squares inference) on the dense pseudo-inverse path against the
// matrix-free operator path, over the same hierarchical strategy at
// n ∈ {256, 1024, 4096}. The dense arm materializes the strategy and its
// pseudo-inverse (setup, untimed) and pays O(m·n) per release; the
// operator arm runs CGLS with O(nnz) matvecs. The dense arm is skipped at
// 4096 where the O(n³) pseudo-inverse setup is no longer reasonable —
// that asymmetry is the point.
func BenchmarkEstimate(b *testing.B) {
	p := mm.Privacy{Epsilon: 0.5, Delta: 1e-4}
	for _, n := range []int{256, 1024, 4096} {
		op := strategy.HierarchicalOperator(domain.MustShape(n), 2)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 13)
		}
		if n <= 1024 {
			b.Run(fmt.Sprintf("dense/%d", n), func(b *testing.B) {
				mech, err := mm.NewMechanism(linalg.ToDense(op))
				if err != nil {
					b.Fatal(err)
				}
				if mech.Inference() != mm.InferDensePinv {
					b.Fatal("expected dense pseudo-inverse path")
				}
				r := rand.New(rand.NewSource(1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mech.EstimateGaussian(x, p, r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("operator/%d", n), func(b *testing.B) {
			mech, err := mm.NewMechanism(op)
			if err != nil {
				b.Fatal(err)
			}
			if mech.Inference() == mm.InferDensePinv {
				b.Fatal("expected matrix-free path")
			}
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mech.EstimateGaussian(x, p, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDesign measures strategy design on 2-D all-range workloads at
// n ∈ {256, 1024, 4096} cells via the principal-vector optimization: the
// two smaller sizes run the dense pipeline, 4096 crosses the structured
// threshold and runs the factored Kronecker pipeline — the configuration
// the server uses past the dense cap.
func BenchmarkDesign(b *testing.B) {
	for _, d := range []int{16, 32, 64} {
		n := d * d
		b.Run(fmt.Sprintf("allrange-%dx%d/%d", d, d, n), func(b *testing.B) {
			w := workload.AllRange(domain.MustShape(d, d))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PrincipalVectors(w, 16, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
