package experiments

import (
	"context"
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig3 reproduces the 1 MB grep probe of Fig. 3: the run is so short that
// unstable setup overheads dominate and the measurements are discarded
// ("We discard these results as too unstable").
func Fig3(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig3", "grep on a 1 MB volume: unstable at small scale")
	c, in, err := qualifiedSetup(ctx, cfg.Seed, "fig3")
	if err != nil {
		return nil, err
	}
	h := probe.NewHarness(c, in, workload.NewGrep(), workload.Local{})
	items := sampleItems(htmlDist(), 2_000_000, cfg.Seed, "fig3")
	set, err := probe.BuildSet(items, 1_000_000, []int64{0, 100_000, 500_000, 1_000_000})
	if err != nil {
		return nil, err
	}
	ms, err := probe.MeasureSetCtx(ctx, h, set)
	if err != nil {
		return nil, err
	}
	addMeasurementRows(rep, ms)
	maxCV, meanOfMeans := 0.0, 0.0
	for _, m := range ms {
		if m.CV() > maxCV {
			maxCV = m.CV()
		}
		meanOfMeans += m.Mean / float64(len(ms))
	}
	rep.note("paper: values very small, stddev large over 5 runs → discarded")
	rep.Values["max_cv"] = maxCV
	rep.Values["mean_seconds"] = meanOfMeans
	rep.Values["unstable"] = boolToFloat(maxCV > 0.15)
	return rep, nil
}

// Fig4 reproduces the 5 GB probe of Fig. 4: execution time vs unit file
// size reaches a plateau at the 10 MB unit that extends to 2 GB.
func Fig4(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig4", "grep on a 5 GB volume: plateau from 10 MB to 2 GB")
	c, in, err := qualifiedSetup(ctx, cfg.Seed, "fig4")
	if err != nil {
		return nil, err
	}
	h := probe.NewHarness(c, in, workload.NewGrep(), workload.Local{})
	const volume = 5_000_000_000
	items := sampleItems(htmlDist(), volume+100_000_000, cfg.Seed, "fig4")
	units := []int64{0, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 2_000_000_000, 5_000_000_000}
	set, err := probe.BuildSet(items, volume, units)
	if err != nil {
		return nil, err
	}
	ms, err := probe.MeasureSetCtx(ctx, h, set)
	if err != nil {
		return nil, err
	}
	addMeasurementRows(rep, ms)
	byUnit := map[int64]float64{}
	for _, m := range ms {
		byUnit[m.UnitSize] = m.Mean
	}
	rep.Values["orig_seconds"] = byUnit[0]
	rep.Values["plateau_10MB_seconds"] = byUnit[10_000_000]
	rep.Values["plateau_2GB_seconds"] = byUnit[2_000_000_000]
	rep.Values["plateau_ratio_10MB_2GB"] = byUnit[10_000_000] / byUnit[2_000_000_000]
	rep.Values["orig_vs_plateau"] = byUnit[0] / byUnit[100_000_000]
	rep.note("plateau holds when the 10 MB / 2 GB ratio ≈ 1; original files sit far above it")
	return rep, nil
}

// Fig5 reproduces the spike structure of Fig. 5: on 1, 2 and 10 GB
// volumes, a fine sweep of unit sizes shows repeatable spikes caused by
// EBS placement ("probes, while on the same EBS logical storage volume,
// were placed in different locations some of which have a consistently
// higher access time").
func Fig5(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig5", "grep on 1/2/10 GB volumes: repeatable EBS placement spikes")
	c, in, err := qualifiedSetup(ctx, cfg.Seed, "fig5")
	if err != nil {
		return nil, err
	}
	vol, err := c.CreateVolume(in.Zone, 100)
	if err != nil {
		return nil, err
	}
	if err := c.Attach(vol, in); err != nil {
		return nil, err
	}
	h := probe.NewHarness(c, in, workload.NewGrep(), vol)
	rep.Header = []string{"volume", "unit size", "mean", "rerun mean", "placement"}
	spikes, points := 0, 0
	var plateauMin, plateauMax float64 = 1e18, 0
	for _, volume := range []int64{1_000_000_000, 2_000_000_000, 10_000_000_000} {
		items := sampleItems(htmlDist(), volume+50_000_000, cfg.Seed, fmt.Sprintf("fig5-%d", volume))
		// Fine sweep: 10 MB base unit, many multiples along the plateau.
		units := []int64{10_000_000, 20_000_000, 30_000_000, 40_000_000, 50_000_000,
			70_000_000, 100_000_000, 150_000_000, 200_000_000, 300_000_000, 500_000_000}
		set, err := probe.BuildSet(items, volume, units)
		if err != nil {
			return nil, err
		}
		ms, err := probe.MeasureSetCtx(ctx, h, set)
		if err != nil {
			return nil, err
		}
		// Rerun to demonstrate repeatability.
		ms2, err := probe.MeasureSetCtx(ctx, h, set)
		if err != nil {
			return nil, err
		}
		for i, m := range ms {
			pf := vol.PlacementFactor(probe.DatasetKey(volume, m.UnitSize))
			rep.addRow(fmtBytes(volume), fmtBytes(m.UnitSize), fmtSecs(m.Mean), fmtSecs(ms2[i].Mean), fmt.Sprintf("%.2fx", pf))
			points++
			perByte := m.Mean / float64(volume)
			if perByte < plateauMin {
				plateauMin = perByte
			}
			if perByte > plateauMax {
				plateauMax = perByte
			}
			if pf > 1.2 {
				spikes++
				// Repeatability: the rerun must reproduce the spike.
				if rel := ms2[i].Mean/m.Mean - 1; rel < -0.2 || rel > 0.2 {
					rep.note("WARNING: spike at %s/%s not repeatable", fmtBytes(volume), fmtBytes(m.UnitSize))
				}
			}
		}
	}
	rep.Values["sweep_points"] = float64(points)
	rep.Values["spikes"] = float64(spikes)
	rep.Values["spike_fraction"] = float64(spikes) / float64(points)
	rep.Values["plateau_spread"] = plateauMax / plateauMin
	rep.note("paper: spikes up to ~3x, repeatable and stable in time")
	return rep, nil
}

// grepCalibration runs the escalating probe protocol for grep and fits the
// Eq. (1)-style model at the 100 MB unit size.
func grepCalibration(ctx context.Context, cfg Config, salt string) (*perfmodel.Affine, []float64, []float64, error) {
	c, in, err := qualifiedSetup(ctx, cfg.Seed, salt)
	if err != nil {
		return nil, nil, nil, err
	}
	h := probe.NewHarness(c, in, workload.NewGrep(), workload.Local{})
	var sets [][]probe.Measurement
	for _, volume := range []int64{200_000_000, 500_000_000, 1_000_000_000, 2_000_000_000, 5_000_000_000} {
		items := sampleItems(htmlDist(), volume+50_000_000, cfg.Seed, fmt.Sprintf("%s-%d", salt, volume))
		set, err := probe.BuildSet(items, volume, []int64{100_000_000})
		if err != nil {
			return nil, nil, nil, err
		}
		ms, err := probe.MeasureSetCtx(ctx, h, set)
		if err != nil {
			return nil, nil, nil, err
		}
		sets = append(sets, ms)
	}
	xs, ys := probe.AllRunsPoints(sets, 100_000_000)
	m, err := perfmodel.FitAffine(xs, ys)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, xs, ys, nil
}

// Eq12 reproduces the two grep linear fits: Eq. (1) from the escalation
// probes at the 100 MB unit size, and Eq. (2) from additional random 2 GB
// samples, whose slightly different slope shows the sampling sensitivity
// the paper reports (32.2s mean with min 23.25 / max 45.95 across
// samples).
func Eq12(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("eq12", "grep linear fits at the 100 MB unit size")
	m1, xs, ys, err := grepCalibration(ctx, cfg, "eq12")
	if err != nil {
		return nil, err
	}
	rep.note("model (1): %v [paper: f(x) = -0.974 + 1.324e-8x, R²=0.999]", m1)

	// Random sampling: 10 independent 2 GB samples (§5.1).
	c, in, err := qualifiedSetup(ctx, cfg.Seed, "eq12-samples")
	if err != nil {
		return nil, err
	}
	h := probe.NewHarness(c, in, workload.NewGrep(), workload.Local{})
	var samples [][]probe.Measurement
	var sampleMeans []float64
	rep.Header = []string{"sample", "volume", "mean", "stddev"}
	for i := 0; i < 10; i++ {
		const volume = 2_000_000_000
		items := sampleItems(htmlDist(), volume+50_000_000, cfg.Seed, fmt.Sprintf("eq12-rs-%d", i))
		set, err := probe.BuildSet(items, volume, []int64{100_000_000})
		if err != nil {
			return nil, err
		}
		ms, err := probe.MeasureSetCtx(ctx, h, set)
		if err != nil {
			return nil, err
		}
		samples = append(samples, ms)
		sampleMeans = append(sampleMeans, ms[0].Mean)
		rep.addRow(fmt.Sprintf("%d", i+1), fmtBytes(volume), fmtSecs(ms[0].Mean), fmtSecs(ms[0].StdDev))
	}
	sx, sy := probe.AllRunsPoints(samples, 100_000_000)
	m2, err := perfmodel.FitAffine(append(xs, sx...), append(ys, sy...))
	if err != nil {
		return nil, err
	}
	rep.note("model (2): %v [paper: f(x) = 0.208 + 1.503e-8x]", m2)
	s := stats.Summarize(sampleMeans)
	rep.Values["eq1_slope_s_per_byte"] = m1.A
	rep.Values["eq1_r2"] = m1.R2()
	rep.Values["eq2_slope_s_per_byte"] = m2.A
	rep.Values["samples_mean_s"] = s.Mean
	rep.Values["samples_min_s"] = s.Min
	rep.Values["samples_max_s"] = s.Max
	rep.Values["sample_spread"] = s.Max / s.Min
	return rep, nil
}

// Fig6 reproduces the 100 GB experiment of Fig. 6: predict with the fitted
// model, run at the 100 MB unit size (staged across 100 EBS volumes) and
// in the original format, and compare. The paper reports prediction
// 1387.8s vs actual 1975.6s (a ~30% underestimate) and a 5.6x improvement
// over the original small files.
func Fig6(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("fig6", "grep on 100 GB: prediction vs actual, reshaped vs original")
	m1, _, _, err := grepCalibration(ctx, cfg, "fig6-cal")
	if err != nil {
		return nil, err
	}
	const volume = 100_000_000_000
	predicted := m1.Predict(volume)

	// Execution environment: a fresh (unqualified-pool) instance with the
	// data staged on EBS volumes. The EBS bandwidth and placement draw
	// differ from the calibration instance's local storage — the paper's
	// prediction error has the same root (training conditions ≠ production
	// conditions).
	c, in, err := qualifiedSetup(ctx, cfg.Seed, "fig6-run")
	if err != nil {
		return nil, err
	}
	vol, err := c.CreateVolume(in.Zone, 1000)
	if err != nil {
		return nil, err
	}
	if err := c.Attach(vol, in); err != nil {
		return nil, err
	}

	// Reshaped run: 1000 unit files of 100 MB.
	units := make([]workload.Item, 1000)
	for i := range units {
		units[i] = workload.NewItem(100_000_000)
	}
	reshaped, err := workload.EstimateCtx(ctx, in, workload.NewGrep(), units, vol, "fig6-reshaped")
	if err != nil {
		return nil, err
	}
	// Original-format run: sample the HTML distribution up to 100 GB.
	origBinItems := sampleItems(htmlDist(), volume, cfg.Seed, "fig6-orig")
	origItems := make([]workload.Item, len(origBinItems))
	for i, it := range origBinItems {
		origItems[i] = workload.NewItem(it.Size)
	}
	original, err := workload.EstimateCtx(ctx, in, workload.NewGrep(), origItems, vol, "fig6-original")
	if err != nil {
		return nil, err
	}

	actual := reshaped.Seconds()
	rep.Header = []string{"configuration", "files", "time", "vs 100MB units"}
	rep.addRow("predicted (model 1)", "-", fmtSecs(predicted), fmt.Sprintf("%.2fx", predicted/actual))
	rep.addRow("100 MB units", "1000", fmtSecs(actual), "1.00x")
	rep.addRow("original format", fmt.Sprintf("%d", len(origItems)), fmtSecs(original.Seconds()), fmt.Sprintf("%.2fx", original.Seconds()/actual))
	rep.note("paper: predicted 1387.8s, actual 1975.6s (~30%% underestimate), 5.6x improvement")
	rep.Values["predicted_s"] = predicted
	rep.Values["actual_s"] = actual
	rep.Values["underestimate_frac"] = (actual - predicted) / actual
	rep.Values["improvement_vs_original"] = original.Seconds() / actual
	rep.Values["original_files"] = float64(len(origItems))
	return rep, nil
}
