package experiments

import (
	"context"
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/provision"
)

// Fig2 reproduces the shape analysis of Fig. 2: for power-law performance
// models f(x) = a·x^b, convexity (b > 1) versus concavity (b < 1) flips
// the optimal provisioning strategy. The experiment tabulates the data
// processable per instance-hour at several working volumes for both
// shapes and verifies the strategy each implies.
func Fig2(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig2", "execution time as a function of data volume: f(x)=a·x^b")
	convex := &perfmodel.PowerLaw{A: 2e-11, B: 1.3}
	concave := &perfmodel.PowerLaw{A: 6e-5, B: 0.7}
	rep.note("convex model:  %v → %s", convex, provision.StrategyForShape(convex.Shape()))
	rep.note("concave model: %v → %s", concave, provision.StrategyForShape(concave.Shape()))

	rep.Header = []string{"volume", "convex f(x)", "concave f(x)", "convex MB/s", "concave MB/s"}
	volumes := []float64{1e8, 1e9, 1e10, 1e11}
	for _, v := range volumes {
		tc := convex.Predict(v)
		tk := concave.Predict(v)
		rep.addRow(fmtBytes(int64(v)), fmtSecs(tc), fmtSecs(tk),
			fmt.Sprintf("%.1f", v/tc/1e6), fmt.Sprintf("%.1f", v/tk/1e6))
	}

	// The decision quantity: data processed in one hour starting from zero
	// versus the marginal hour from hour D-1 to D.
	firstHourConvex, err := convex.Invert(3600)
	if err != nil {
		return nil, err
	}
	firstHourConcave, err := concave.Invert(3600)
	if err != nil {
		return nil, err
	}
	lateConvexEnd, err := convex.Invert(4 * 3600)
	if err != nil {
		return nil, err
	}
	lateConvexStart, err := convex.Invert(3 * 3600)
	if err != nil {
		return nil, err
	}
	lateConcaveEnd, err := concave.Invert(4 * 3600)
	if err != nil {
		return nil, err
	}
	lateConcaveStart, err := concave.Invert(3 * 3600)
	if err != nil {
		return nil, err
	}
	rep.Values["convex_first_hour_bytes"] = firstHourConvex
	rep.Values["convex_marginal_hour_bytes"] = lateConvexEnd - lateConvexStart
	rep.Values["concave_first_hour_bytes"] = firstHourConcave
	rep.Values["concave_marginal_hour_bytes"] = lateConcaveEnd - lateConcaveStart
	// Convex: fresh instances process more per hour → start new instances.
	rep.Values["convex_prefers_new_instances"] = boolToFloat(firstHourConvex > lateConvexEnd-lateConvexStart)
	// Concave: the marginal hour processes more → pack up to the deadline.
	rep.Values["concave_prefers_packing"] = boolToFloat(lateConcaveEnd-lateConcaveStart > firstHourConcave)
	rep.Values["convex_shape"] = float64(convex.Shape())
	rep.Values["concave_shape"] = float64(concave.Shape())
	return rep, nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
