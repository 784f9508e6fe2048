// Quickstart: build a small six-node sensor network by hand, register a
// correlation subscription with the Filter-Split-Forward approach, publish a
// few readings and observe the delivered complex event and the traffic it
// cost. This is the paper's running example (Table I / Figure 3) in ~60
// lines of application code.
package main

import (
	"fmt"
	"log"

	"sensorcq"
)

func main() {
	// Topology: two hubs, a user node, and three sensors a (ambient
	// temperature), b (relative humidity) and c (wind speed).
	//
	//	sensor a (0)   sensor b (1)
	//	        \       /
	//	         hub (3) --- hub (4) --- user (5)
	//	                      |
	//	                 sensor c (2)
	dep, err := sensorcq.NewTopology(6).
		Link(5, 4).Link(4, 3).Link(3, 0).Link(3, 1).Link(4, 2).
		PlaceSensor(0, sensorcq.Sensor{ID: "a", Attr: sensorcq.AmbientTemperature}).
		PlaceSensor(1, sensorcq.Sensor{ID: "b", Attr: sensorcq.RelativeHumidity}).
		PlaceSensor(2, sensorcq.Sensor{ID: "c", Attr: sensorcq.WindSpeed}).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{Approach: sensorcq.FilterSplitForward, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// "Tell me when it is mild (50..80) at sensor a while humidity at sensor
	// b is between 10 and 30, within 30 seconds of each other."
	sub, err := sensorcq.NewIdentifiedSubscription("mild-and-dry", []sensorcq.SensorFilter{
		{Sensor: "a", Attr: sensorcq.AmbientTemperature, Range: sensorcq.NewInterval(50, 80)},
		{Sensor: "b", Attr: sensorcq.RelativeHumidity, Range: sensorcq.NewInterval(10, 30)},
	}, 30)
	if err != nil {
		log.Fatal(err)
	}
	handle, err := sys.Subscribe(5, sub)
	if err != nil {
		log.Fatal(err)
	}

	readings := []sensorcq.Event{
		{Seq: 1, Sensor: "a", Attr: sensorcq.AmbientTemperature, Value: 62, Time: 100},
		{Seq: 2, Sensor: "c", Attr: sensorcq.WindSpeed, Value: 7, Time: 101}, // nobody asked: dropped at source
		{Seq: 3, Sensor: "b", Attr: sensorcq.RelativeHumidity, Value: 22, Time: 105},
		{Seq: 4, Sensor: "a", Attr: sensorcq.AmbientTemperature, Value: 95, Time: 200}, // out of range: dropped
	}
	if err := sys.PublishBatch(readings); err != nil {
		log.Fatal(err)
	}

	// Results are pushed to the handle's delivery channel as they are
	// produced; Unsubscribe retracts the query network-wide and closes the
	// channel, so ranging over it terminates with the subscription.
	if err := handle.Unsubscribe(); err != nil {
		log.Fatal(err)
	}
	for d := range handle.Deliveries() {
		fmt.Printf("complex event delivered to node %d:\n", d.Node)
		for _, e := range d.Events {
			fmt.Printf("  %s\n", e)
		}
	}

	// The query is gone from every node: the same mild-and-dry conditions no
	// longer produce deliveries or event traffic.
	after := sys.Traffic().EventLoad
	if err := sys.PublishBatch([]sensorcq.Event{
		{Seq: 5, Sensor: "a", Attr: sensorcq.AmbientTemperature, Value: 60, Time: 300},
		{Seq: 6, Sensor: "b", Attr: sensorcq.RelativeHumidity, Value: 25, Time: 301},
	}); err != nil {
		log.Fatal(err)
	}

	traffic := sys.Traffic()
	fmt.Printf("notifications delivered: %d (pushed to the handle's channel)\n", handle.Delivered())
	fmt.Printf("after unsubscribe:       %d further data units forwarded\n", traffic.EventLoad-after)
	fmt.Printf("traffic: %d advertisement, %d subscription, %d unsubscription, %d event link traversals\n",
		traffic.AdvertisementLoad, traffic.SubscriptionLoad, traffic.UnsubscriptionLoad, traffic.EventLoad)
}
