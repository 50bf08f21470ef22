package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivemm/internal/linalg"
	"adaptivemm/internal/mm"
	"adaptivemm/internal/workload"
)

// RelativeErrorOptions configures the Monte-Carlo relative-error harness.
type RelativeErrorOptions struct {
	// Trials is the number of mechanism invocations averaged. Default 5.
	Trials int
	// SanityFraction sets the sanity bound s = SanityFraction·Total used in
	// |est−true|/max(true, s); queries with tiny true answers otherwise
	// dominate the average. Default 0.001 (0.1% of the dataset).
	SanityFraction float64
}

func (o RelativeErrorOptions) withDefaults() RelativeErrorOptions {
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.SanityFraction <= 0 {
		o.SanityFraction = 0.001
	}
	return o
}

// RelativeError measures the average relative error of answering the
// explicit workload w on the dataset with strategy a under (ε,δ)-privacy,
// averaged over queries and trials:
//
//	mean |ŵx − wx| / max(wx, s)
//
// This is the experimental quantity of the paper's Figs. 3(b,d); unlike
// workload error it depends on the data.
func RelativeError(d *Dataset, w *workload.Workload, a *linalg.Matrix, p mm.Privacy,
	o RelativeErrorOptions, r *rand.Rand) (float64, error) {
	o = o.withDefaults()
	if len(d.X) != w.Cells() {
		return 0, fmt.Errorf("dataset: %d cells vs workload %d", len(d.X), w.Cells())
	}
	mech, err := mm.NewMechanism(a)
	if err != nil {
		return 0, err
	}
	truth := linalg.MulVec(w.Matrix(), d.X)
	s := o.SanityFraction * d.Total
	var sum float64
	count := 0
	for trial := 0; trial < o.Trials; trial++ {
		est, err := mech.AnswerGaussian(w, d.X, p, r)
		if err != nil {
			return 0, err
		}
		for i := range est {
			denom := truth[i]
			if denom < s {
				denom = s
			}
			sum += math.Abs(est[i]-truth[i]) / denom
			count++
		}
	}
	return sum / float64(count), nil
}
