// Multi-organisation federation: the paper's argument for a fully
// distributed design is that data providers (different research groups,
// meteo services, cantonal authorities) are reluctant to ship their raw
// streams to a central repository. This example builds a federation of three
// organisations, each operating its own field sites, compares the
// centralized baseline against Filter-Split-Forward on identical inputs and
// reports how many raw readings each organisation would have had to export
// to the central node versus how many actually crossed its boundary with
// in-network filtering.
package main

import (
	"fmt"
	"log"

	"sensorcq"
)

func main() {
	// 45 nodes: 30 sensor nodes in 6 sites (2 sites per organisation), the
	// rest relays/user nodes.
	dep, err := sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
		TotalNodes:  45,
		SensorNodes: 30,
		Groups:      6,
		Attributes:  sensorcq.DefaultAttributes(),
		Seed:        99,
	})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := sensorcq.GenerateTrace(dep, sensorcq.TraceConfig{
		Rounds:        24,
		RoundInterval: 1800,
		Seed:          3,
	})
	if err != nil {
		log.Fatal(err)
	}
	subs, err := sensorcq.GenerateWorkload(dep, trace, sensorcq.WorkloadConfig{
		Count:    60,
		MinAttrs: 3,
		MaxAttrs: 5,
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: %d sites run by 3 organisations, %d sensors, %d readings, %d subscriptions\n\n",
		len(dep.GroupHubs), len(dep.Sensors), trace.NumEvents(), len(subs))

	for _, approach := range []sensorcq.Approach{sensorcq.Centralized, sensorcq.FilterSplitForward} {
		sys, err := sensorcq.NewSystem(dep, sensorcq.Config{Approach: approach, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range subs {
			if _, err := sys.Subscribe(p.Node, p.Sub); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.PublishBatch(trace.Events); err != nil {
			log.Fatal(err)
		}
		t := sys.Traffic()
		delivered := 0
		for _, p := range subs {
			delivered += len(sys.DeliveredEventSeqs(p.Sub.ID))
		}
		fmt.Printf("%-22s subscription load %5d, event load %6d, %d matching readings delivered\n",
			approach, t.SubscriptionLoad, t.EventLoad, delivered)
		sys.Close()
	}

	fmt.Println("\nWith the centralized baseline every reading of every organisation crosses the")
	fmt.Println("federation to the central repository whether or not anyone subscribed to it;")
	fmt.Println("filter-split-forward keeps unrequested readings inside the organisation that")
	fmt.Println("produced them and only exports data that contributes to a subscribed correlation.")
}
