// Alpine monitoring: the paper's motivating scenario. A Swiss-Experiment
// style federation of ten high-alpine field sites (base stations), each with
// five sensors, serves abstract subscriptions like "alert me when, somewhere
// on this site, it is freezing while the wind exceeds 40 km/h" — a frost/
// wind-chill warning. The example generates a realistic synthetic trace,
// registers warning subscriptions for every site, replays a day of
// measurements and compares the traffic of Filter-Split-Forward against the
// naive distributed approach on exactly the same inputs.
package main

import (
	"fmt"
	"log"

	"sensorcq"
)

func main() {
	dep, err := sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
		TotalNodes:  60,
		SensorNodes: 50,
		Groups:      10,
		Attributes:  sensorcq.DefaultAttributes(),
		Seed:        2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	// One day of measurements at a 30-minute sampling period.
	trace, err := sensorcq.GenerateTrace(dep, sensorcq.TraceConfig{
		Rounds:        48,
		RoundInterval: 1800,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d nodes, %d sensors, %d sites; trace: %d readings\n",
		dep.Graph.NumNodes(), len(dep.Sensors), len(dep.GroupHubs), trace.NumEvents())

	for _, approach := range []sensorcq.Approach{sensorcq.Naive, sensorcq.FilterSplitForward} {
		load, alerts, err := run(dep, trace, approach)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s event load %6d data units, %3d frost/wind alerts delivered\n",
			approach, load, alerts)
	}
}

// run registers one frost/wind-chill warning per field site plus a couple of
// overlapping, more specific ones, replays the trace and reports the event
// traffic and the number of delivered alerts.
func run(dep *sensorcq.Deployment, trace *sensorcq.Trace, approach sensorcq.Approach) (int64, int, error) {
	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{Approach: approach, Seed: 42})
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()

	userNode := dep.UserNodes[0]
	var subIDs []sensorcq.SubscriptionID
	for site, region := range dep.GroupRegions {
		// Frost + strong wind anywhere on the site, within one sampling
		// period.
		broad, err := sensorcq.NewAbstractSubscription(
			sensorcq.SubscriptionID(fmt.Sprintf("site%02d-wind-chill", site)),
			[]sensorcq.AttributeFilter{
				{Attr: sensorcq.AmbientTemperature, Range: sensorcq.NewInterval(-30, 0)},
				{Attr: sensorcq.WindSpeed, Range: sensorcq.NewInterval(8, 60)},
			},
			region, 1800, sensorcq.NoSpatialConstraint)
		if err != nil {
			return 0, 0, err
		}
		// A stricter variant issued by another scientist; it is fully
		// covered by the broad one, so the filter phase should avoid
		// injecting it deep into the network.
		strict, err := sensorcq.NewAbstractSubscription(
			sensorcq.SubscriptionID(fmt.Sprintf("site%02d-severe", site)),
			[]sensorcq.AttributeFilter{
				{Attr: sensorcq.AmbientTemperature, Range: sensorcq.NewInterval(-20, -5)},
				{Attr: sensorcq.WindSpeed, Range: sensorcq.NewInterval(12, 40)},
			},
			region, 1800, sensorcq.NoSpatialConstraint)
		if err != nil {
			return 0, 0, err
		}
		for _, sub := range []*sensorcq.Subscription{broad, strict} {
			if _, err := sys.Subscribe(userNode, sub); err != nil {
				return 0, 0, err
			}
			subIDs = append(subIDs, sub.ID)
		}
	}

	if err := sys.PublishBatch(trace.Events); err != nil {
		return 0, 0, err
	}
	alerts := 0
	for _, id := range subIDs {
		alerts += len(sys.DeliveriesFor(id))
	}
	return sys.Traffic().EventLoad, alerts, nil
}
