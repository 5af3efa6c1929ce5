// Dynamic rescheduling: the paper's §7 future-work features, built out.
// A monitored grep task detects a slow instance mid-run, terminates it,
// and re-attaches its EBS volume to a replacement — no data moves. A spot
// plan then shows the §1.1 trade-off: cheaper hours in exchange for
// interruptions, for applications that can resume cleanly.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	// --- The §3.1 back-of-envelope first. ---
	decision, err := sched.AnalyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("switch-or-stay on a 60 MB/s instance (85%% chance the replacement is fast):\n")
	fmt.Printf("  stay:            %.0f GB next hour\n", decision.StayGB)
	fmt.Printf("  switch (fast):   %.0f GB (%+.0f)\n", decision.SwitchGB, decision.SwitchGB-decision.StayGB)
	fmt.Printf("  switch (slow):   %.0f GB (%+.0f)\n", decision.SwitchSlowGB, decision.SwitchSlowGB-decision.StayGB)
	fmt.Printf("  recommendation:  switch=%v (expected gain %.0f GB)\n\n", decision.Recommend, decision.ExpectedGainGB)

	// --- Monitored execution on an all-slow cloud. ---
	// Expected progress comes from a model fitted on good instances.
	expected, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0, 1e9 / 60e6})
	if err != nil {
		log.Fatal(err)
	}
	items := make([]workload.Item, 40)
	for i := range items {
		items[i] = workload.NewItem(100_000_000) // 4 GB of grep work
	}
	for _, policy := range []sched.ReplacePolicy{sched.NeverReplace, sched.ReplaceNow, sched.ReplaceAtHour} {
		cloud := cloudsim.NewInRegion(6, cloudsim.USEast,
			cloudsim.QualityDist{SlowFraction: 0.5}) // a bad day on EC2: the first instance draws slow
		vol, err := cloud.CreateVolume("us-east-1a", 100)
		if err != nil {
			log.Fatal(err)
		}
		monitor := sched.NewMonitor(cloud, workload.NewGrep(), expected, "us-east-1a")
		monitor.Policy = policy
		monitor.SlowRatio = 1.4
		report, err := monitor.RunTask(ctx, items, vol, "newslab-shard-7")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("policy %-16s elapsed %7.0fs, %d replacement(s), %.0f billed hours, $%.3f, instances %v\n",
			policy, report.ElapsedS, report.Replacements, report.BilledHours, report.CostUSD, report.Grades)
	}

	// --- Zone-failure recovery via the S3 backup. ---
	fmt.Println()
	{
		c := cloudsim.NewInRegion(6, cloudsim.USEast, cloudsim.QualityDist{})
		vol40 := make([]workload.Item, 40)
		for i := range vol40 {
			vol40[i] = workload.NewItem(100_000_000)
		}
		monitor := sched.NewMonitor(c, workload.NewGrep(), expected, "us-east-1a")
		rep, err := monitor.RunTaskResilient(ctx, vol40, "us-east-1a", "newslab-backup",
			func(chunk int) {
				if chunk == 2 && !c.ZoneFailed("us-east-1a") {
					_ = c.FailZone("us-east-1a") // inject a zone outage mid-task
				}
			})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("zone outage mid-task: %d failover(s) via zones %v, re-staging cost %.0fs, finished in %.0fs ($%.3f)\n",
			rep.ZoneFailovers, rep.Zones, rep.RestageSeconds, rep.ElapsedS, rep.CostUSD)
	}

	// --- Spot execution for deadline-insensitive work. ---
	fmt.Println()
	cloud := cloudsim.New(11)
	for _, bid := range []float64{0.085, 0.042, 0.036} {
		out, err := sched.PlanSpot(cloud, bid, 12)
		if err != nil {
			fmt.Printf("bid $%.3f/h: %v\n", bid, err)
			continue
		}
		fmt.Printf("bid $%.3f/h: 12 work-hours finished in %5.1f wall-hours, %d interruption(s), $%.3f (on-demand $%.3f)\n",
			bid, out.SpanHours, out.Interruptions, out.CostUSD, out.OnDemandUSD)
	}
}
