package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// tableAnswers renders what a node's advertisement table answers about every
// sensor (which neighbours an identified query on it projects onto) and about
// every attribute type in every region (the neighbours an abstract query
// projects onto, and whether it has all its sources), so that two tables
// can be compared whatever refs their networks gave the sensors.
func tableAnswers(t *testing.T, n *Node, sensors []model.Sensor, regions []geom.Region) []string {
	t.Helper()
	advs := n.Advertisements()
	via := func(sub *model.Subscription) []topology.NodeID {
		var out []topology.NodeID
		for _, j := range n.ctx.Neighbors() {
			if advs.Project(sub, j) != nil {
				out = append(out, j)
			}
		}
		return out
	}
	out := []string{fmt.Sprintf("count %d", advs.Count())}
	for _, s := range sensors {
		sub, err := model.NewIdentifiedSubscription("id", []model.SensorFilter{{Sensor: s.ID, Attr: s.Attr, Range: geom.NewInterval(0, 100)}}, 30)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s: known %v via %v", s.ID, advs.Known(s.ID), via(sub)))
	}
	for i, r := range regions {
		for _, a := range model.DefaultAttributes() {
			sub, err := model.NewAbstractSubscription("abs", []model.AttributeFilter{{Attr: a, Range: geom.NewInterval(0, 100)}}, r, 30, model.NoSpatialConstraint)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("region %d %s: all %v via %v", i, a, advs.HasAllSources(sub), via(sub)))
		}
	}
	return out
}

// TestRegistryGrowsWhileTheFloodRuns attaches a deployment's sensors to the
// concurrent engine from two goroutines at once, without waiting: the
// registry takes new sensors while the workers flood the earlier ones and
// read their coordinates. Every node's table must then answer exactly as on
// the sequential engine. Run it under -race.
func TestRegistryGrowsWhileTheFloodRuns(t *testing.T) {
	dep, err := topology.GenerateDeployment(topology.DeploymentConfig{
		TotalNodes: 150, SensorNodes: 100, Groups: 20, Attributes: model.DefaultAttributes(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := netsim.NewEngine(dep.Graph, fsfFactory())
	for _, s := range dep.Sensors {
		if err := seq.AttachSensor(dep.SensorHost[s.ID], s); err != nil {
			t.Fatal(err)
		}
	}
	conc := netsim.NewConcurrentEngineWorkers(dep.Graph, fsfFactory(), 2)
	defer conc.Close()
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < len(dep.Sensors); i += 2 {
				s := dep.Sensors[i]
				if err := conc.AttachSensor(dep.SensorHost[s.ID], s); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	conc.Flush()

	if a, b := seq.Metrics().Snapshot().AdvertisementLoad, conc.Metrics().Snapshot().AdvertisementLoad; a != b || a != int64(len(dep.Sensors)*(dep.Graph.NumNodes()-1)) {
		t.Errorf("advertisement load: sequential %d, concurrent %d, want %d on both", a, b, len(dep.Sensors)*(dep.Graph.NumNodes()-1))
	}
	regions := append(slices.Clone(dep.GroupRegions), geom.WholePlane())
	for node := 0; node < dep.Graph.NumNodes(); node++ {
		id := topology.NodeID(node)
		want := tableAnswers(t, coreNode(t, seq, id), dep.Sensors, regions)
		got := tableAnswers(t, conc.Handler(id).(*Node), dep.Sensors, regions)
		if !slices.Equal(got, want) {
			t.Fatalf("node %d answers\n  %v\nsequentially\n  %v", node, got, want)
		}
	}
}

// TestNetworksAnswerFromTheirOwnSensors runs two networks in one process
// with the same sensor IDs at different attribute types and locations: each
// network's tables answer from its own sensors.
func TestNetworksAnswerFromTheirOwnSensors(t *testing.T) {
	near, far := geom.Point2D{X: 10, Y: 10}, geom.Point2D{X: 900, Y: 900}
	here := setupNetwork(t, []model.Sensor{
		{ID: "a", Attr: model.WindSpeed, Location: near},
		{ID: "b", Attr: model.RelativeHumidity, Location: near},
	})
	there := setupNetwork(t, []model.Sensor{
		{ID: "b", Attr: model.WindSpeed, Location: far},
		{ID: "a", Attr: model.RelativeHumidity, Location: far},
	})
	wind := func(at geom.Point2D) *model.Subscription {
		sub, err := model.NewAbstractSubscription("w", []model.AttributeFilter{{Attr: model.WindSpeed, Range: geom.NewInterval(0, 100)}},
			geom.RegionAround(at, 50), 30, model.NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	for _, tc := range []struct {
		name string
		e    *netsim.Engine
		at   geom.Point2D
		want bool
	}{
		{"here, near", here, near, true},
		{"here, far", here, far, false},
		{"there, near", there, near, false},
		{"there, far", there, far, true},
	} {
		// Node 5 hears of every sensor via node 4.
		advs := coreNode(t, tc.e, nodeUser).Advertisements()
		sub := wind(tc.at)
		if got := advs.HasAllSources(sub); got != tc.want {
			t.Errorf("%s: HasAllSources(wind) = %v, want %v", tc.name, got, tc.want)
		}
		if got := advs.Project(sub, nodeHubMain) != nil; got != tc.want {
			t.Errorf("%s: wind projects onto node 4: %v, want %v", tc.name, got, tc.want)
		}
	}
	// The identified view: "a" is wind here and humidity there, and a filter
	// names the sensor, so both networks project it, each under its own ref.
	for _, e := range []*netsim.Engine{here, there} {
		advs := coreNode(t, e, nodeUser).Advertisements()
		if p := advs.Project(tableISub(t, "ab", map[model.SensorID][2]float64{"a": {0, 1}, "b": {0, 1}}), nodeHubMain); p == nil || p.NumFilters() != 2 {
			t.Errorf("a and b project onto node 4 as %v", p)
		}
	}
	if a, b := regs(t, here).Advertisement(0), regs(t, there).Advertisement(0); a.Sensor != "a" || b.Sensor != "b" {
		t.Errorf("ref 0 is %s here and %s there; refs follow each network's attach order", a.Sensor, b.Sensor)
	}
}

// setupNetwork attaches the sensors to the Figure 3 network's sensor nodes
// in order and floods them.
func setupNetwork(t *testing.T, sensors []model.Sensor) *netsim.Engine {
	t.Helper()
	e := netsim.NewEngine(figure3Graph(t), fsfFactory())
	hosts := []topology.NodeID{nodeSensorA, nodeSensorB, nodeSensorC}
	for i, s := range sensors {
		if err := e.AttachSensor(hosts[i], s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// regs returns the sensor registry of an engine's network.
func regs(t *testing.T, e *netsim.Engine) *model.SensorRegistry {
	t.Helper()
	return coreNode(t, e, 0).ctx.Sensors()
}
