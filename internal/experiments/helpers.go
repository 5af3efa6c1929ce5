package experiments

import (
	"context"
	"fmt"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/probe"
	"repro/internal/stats"
)

// qualifiedSetup builds a cloud and acquires a qualified instance, the §4
// precondition of every measurement experiment.
func qualifiedSetup(ctx context.Context, seed int64, salt string) (*cloudsim.Cloud, *cloudsim.Instance, error) {
	c := cloudsim.New(stats.SeedFor(seed, salt))
	in, _, err := c.AcquireQualifiedCtx(ctx, cloudsim.Small, "us-east-1a", 50)
	if err != nil {
		return nil, nil, err
	}
	return c, in, nil
}

// nominalSetup builds a cloud and launches an idealised nominal-quality
// instance — the controlled environment the §5 planning figures assume
// ("all instances are uniform and performing well").
func nominalSetup(seed int64, salt string) (*cloudsim.Cloud, *cloudsim.Instance, error) {
	c := cloudsim.New(stats.SeedFor(seed, salt))
	in, err := c.LaunchNominal(cloudsim.Small, "us-east-1a")
	if err != nil {
		return nil, nil, err
	}
	if err := c.WaitUntilRunning(in); err != nil {
		return nil, nil, err
	}
	return c, in, nil
}

// sampleItems draws files from a size distribution until the target volume
// is reached, without materialising a full corpus. The items stand in for
// a contiguous region of the data set; like every packed item, each is
// known by its position, so none is named.
func sampleItems(dist corpus.SizeDist, volume int64, seed int64, salt string) []binpack.Item {
	r := stats.NewRand(seed, salt)
	var items []binpack.Item
	var total int64
	for total < volume {
		s := dist.Sample(r)
		if total+s > volume {
			s = volume - total
			if s <= 0 {
				break
			}
		}
		items = append(items, binpack.Item{Size: s})
		total += s
	}
	return items
}

// htmlDist / textDist are the two corpora's size distributions.
func htmlDist() corpus.SizeDist { return corpus.HTML18Mil(1).Sizes }
func textDist() corpus.SizeDist { return corpus.Text400K(1).Sizes }

// addMeasurementRows renders measurements into a report table.
func addMeasurementRows(rep *Report, ms []probe.Measurement) {
	rep.Header = []string{"unit size", "files", "mean", "stddev", "cv"}
	for _, m := range ms {
		unit := "original"
		if m.UnitSize > 0 {
			unit = fmtBytes(m.UnitSize)
		}
		rep.addRow(unit, fmt.Sprintf("%d", m.Files), fmtSecs(m.Mean), fmtSecs(m.StdDev), fmt.Sprintf("%.3f", m.CV()))
	}
}
