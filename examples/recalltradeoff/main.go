// Recall/traffic trade-off: the Filter-Split-Forward approach relies on a
// probabilistic set-subsumption check whose error probability is a user
// parameter (Section VI-F). A higher error probability samples fewer points
// per decision, so more subscriptions are declared covered by mistake and
// are not forwarded. This example sweeps the error probability on a fixed
// workload and prints the resulting subscription load, event load and
// end-user recall — the trade-off the paper discusses alongside Figure 12.
package main

import (
	"fmt"
	"log"

	"sensorcq"
)

func main() {
	scenario := sensorcq.QuickScale(sensorcq.SmallScaleScenario())
	scenario.Batches = 5
	scenario.BatchSize = 60

	fmt.Printf("scenario: %s, %d subscriptions, %d measurement rounds\n\n",
		scenario.Name, scenario.TotalSubscriptions(), scenario.TotalRounds())
	fmt.Printf("%-12s %-18s %-12s %-8s\n", "error prob", "subscription load", "event load", "recall")

	for _, errProb := range []float64{0.001, 0.02, 0.1, 0.3, 0.6} {
		s := scenario
		s.SetFilterError = errProb
		res, err := sensorcq.RunExperiment(s, &sensorcq.ExperimentOptions{
			Approaches:    []sensorcq.Approach{sensorcq.FilterSplitForward},
			ComputeRecall: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		final := res.SeriesFor(sensorcq.FilterSplitForward).Final()
		fmt.Printf("%-12g %-18d %-12d %.1f%%\n",
			errProb, final.SubscriptionLoad, final.EventLoad, final.Recall*100)
	}

	fmt.Println("\nA wrong \"covered\" verdict loses only readings no other forwarded match carries; recall shows what that cost.")
}
