package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"sensorcq/internal/model"
)

func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(NodeID(i-1), NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatal("fresh graph should be edgeless")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Degree(1) != 3 || g.Degree(0) != 1 {
		t.Error("Degree wrong")
	}
	nb := g.Neighbors(1)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 2 || nb[2] != 3 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	if g.Neighbors(99) != nil || g.Degree(99) != 0 {
		t.Error("out-of-range nodes should be handled gracefully")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("star graph should validate: %v", err)
	}
}

func TestGraphAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self loop should fail")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("unknown node should fail")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge should fail")
	}
}

func TestGraphValidateRejectsNonTrees(t *testing.T) {
	if err := NewGraph(0).Validate(); err == nil {
		t.Error("empty graph should fail validation")
	}
	// Disconnected.
	g := NewGraph(4)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3)
	if err := g.Validate(); err == nil {
		t.Error("disconnected graph should fail validation")
	}
	// Cyclic.
	c := NewGraph(3)
	_ = c.AddEdge(0, 1)
	_ = c.AddEdge(1, 2)
	_ = c.AddEdge(2, 0)
	if err := c.Validate(); err == nil {
		t.Error("cyclic graph should fail validation")
	}
}

func TestBFSAndPath(t *testing.T) {
	g := line(t, 5)
	dist := g.BFS(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("dist[%d] = %d, want %d", i, d, i)
		}
	}
	p := g.Path(0, 4)
	if len(p) != 5 || p[0] != 0 || p[4] != 4 {
		t.Errorf("Path(0,4) = %v", p)
	}
	if got := g.Path(2, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("Path to self = %v", got)
	}
	if g.Path(0, 99) != nil {
		t.Error("path to unknown node should be nil")
	}
	if g.NextHop(0, 4) != 1 || g.NextHop(4, 0) != 3 {
		t.Error("NextHop wrong")
	}
	if g.NextHop(2, 2) != -1 {
		t.Error("NextHop to self should be -1")
	}
}

func TestCenterEccentricityDiameter(t *testing.T) {
	g := line(t, 5)
	if c := g.Center(); c != 2 {
		t.Errorf("centre of a 5-node line = %d, want 2", c)
	}
	if g.Eccentricity(0) != 4 || g.Eccentricity(2) != 2 {
		t.Error("eccentricity wrong")
	}
	if g.Diameter() != 4 {
		t.Errorf("diameter = %d, want 4", g.Diameter())
	}
	// Star: centre is the hub.
	star := NewGraph(4)
	_ = star.AddEdge(0, 1)
	_ = star.AddEdge(0, 2)
	_ = star.AddEdge(0, 3)
	if star.Center() != 0 {
		t.Error("centre of a star should be the hub")
	}
}

func TestDeploymentConfigValidate(t *testing.T) {
	good := DeploymentConfig{TotalNodes: 60, SensorNodes: 50, Groups: 10, Attributes: model.DefaultAttributes()}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []DeploymentConfig{
		{TotalNodes: 0, SensorNodes: 1, Groups: 1, Attributes: model.DefaultAttributes()},
		{TotalNodes: 10, SensorNodes: 10, Groups: 1, Attributes: model.DefaultAttributes()},
		{TotalNodes: 10, SensorNodes: 5, Groups: 0, Attributes: model.DefaultAttributes()},
		{TotalNodes: 10, SensorNodes: 5, Groups: 6, Attributes: model.DefaultAttributes()},
		{TotalNodes: 12, SensorNodes: 10, Groups: 5, Attributes: model.DefaultAttributes()},
		{TotalNodes: 60, SensorNodes: 50, Groups: 10, Attributes: nil},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestGenerateDeploymentSmallScale(t *testing.T) {
	cfg := DeploymentConfig{
		TotalNodes:  60,
		SensorNodes: 50,
		Groups:      10,
		Attributes:  model.DefaultAttributes(),
		Seed:        1,
	}
	dep, err := GenerateDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Graph.NumNodes() != 60 {
		t.Fatalf("node count = %d", dep.Graph.NumNodes())
	}
	if err := dep.Graph.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if len(dep.Sensors) != 50 {
		t.Fatalf("sensor count = %d", len(dep.Sensors))
	}
	if len(dep.GroupHubs) != 10 || len(dep.GroupMembers) != 10 {
		t.Fatal("group bookkeeping wrong")
	}
	// Each group has 5 sensors covering all 5 attribute types.
	for gi, members := range dep.GroupMembers {
		if len(members) != 5 {
			t.Fatalf("group %d has %d members", gi, len(members))
		}
		attrs := map[model.AttributeType]bool{}
		for _, n := range members {
			for _, s := range dep.NodeSensors[n] {
				attrs[s.Attr] = true
				if !dep.GroupRegions[gi].Contains(s.Location) {
					t.Errorf("sensor %s outside its group region", s.ID)
				}
			}
		}
		if len(attrs) != 5 {
			t.Errorf("group %d covers %d attribute types, want 5", gi, len(attrs))
		}
	}
	// Sensor hosting is consistent.
	for _, s := range dep.Sensors {
		host, ok := dep.SensorHost[s.ID]
		if !ok {
			t.Fatalf("sensor %s has no host", s.ID)
		}
		found := false
		for _, hs := range dep.NodeSensors[host] {
			if hs.ID == s.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("sensor %s not listed at its host", s.ID)
		}
	}
	// Relay/user nodes do not host sensors.
	for _, n := range dep.RelayNodes {
		if dep.IsSensorNode(n) {
			t.Errorf("relay node %d hosts sensors", n)
		}
	}
	if len(dep.UserNodes) == 0 {
		t.Error("expected some user nodes")
	}
	// Attribute helper.
	if got := len(dep.SensorsOfAttr(model.WindSpeed)); got != 10 {
		t.Errorf("wind speed sensors = %d, want 10", got)
	}
}

func TestGenerateDeploymentDeterministic(t *testing.T) {
	cfg := DeploymentConfig{TotalNodes: 100, SensorNodes: 50, Groups: 10, Attributes: model.DefaultAttributes(), Seed: 7}
	a, err := GenerateDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed should give same edge count")
	}
	for n := 0; n < a.Graph.NumNodes(); n++ {
		an := a.Graph.Neighbors(NodeID(n))
		bn := b.Graph.Neighbors(NodeID(n))
		if len(an) != len(bn) {
			t.Fatalf("node %d neighbour count differs", n)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("node %d neighbours differ", n)
			}
		}
	}
	for i := range a.Sensors {
		if a.Sensors[i] != b.Sensors[i] {
			t.Fatal("sensor placement differs between identical seeds")
		}
	}
}

func TestGenerateDeploymentNoPureRelays(t *testing.T) {
	// TotalNodes exactly covers sensors + hubs: hubs chain into a backbone.
	cfg := DeploymentConfig{TotalNodes: 12, SensorNodes: 10, Groups: 2, Attributes: model.DefaultAttributes(), Seed: 3}
	dep, err := GenerateDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dep.UserNodes) == 0 {
		t.Error("user nodes should fall back to group hubs")
	}
}

// Property: generated deployments are always valid trees and every sensor
// node hosts at least one sensor.
func TestPropertyGeneratedDeploymentsAreTrees(t *testing.T) {
	f := func(seed int64, groupsRaw, perGroupRaw, relaysRaw uint8) bool {
		groups := int(groupsRaw%8) + 1
		perGroup := int(perGroupRaw%5) + 1
		relays := int(relaysRaw % 20)
		sensors := groups * perGroup
		total := sensors + groups + relays
		cfg := DeploymentConfig{
			TotalNodes:  total,
			SensorNodes: sensors,
			Groups:      groups,
			Attributes:  model.DefaultAttributes(),
			Seed:        seed,
		}
		dep, err := GenerateDeployment(cfg)
		if err != nil {
			return false
		}
		if dep.Graph.Validate() != nil {
			return false
		}
		count := 0
		for _, members := range dep.GroupMembers {
			count += len(members)
		}
		return count == sensors && len(dep.Sensors) == sensors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGeneratedSensorIDsAreUnique generates groups of 1 to 12 sensors over
// the five default attribute types: every sensor ID must be distinct, since a
// network advertises each sensor once. Up to one sensor per attribute type a
// group's IDs all end in -0; past that each type's sensors count up.
func TestGeneratedSensorIDsAreUnique(t *testing.T) {
	attrs := model.DefaultAttributes()
	for perGroup := 1; perGroup <= 12; perGroup++ {
		for seed := int64(1); seed <= 5; seed++ {
			const groups = 3
			dep, err := GenerateDeployment(DeploymentConfig{
				TotalNodes: groups*perGroup + groups + 4, SensorNodes: groups * perGroup, Groups: groups,
				Attributes: attrs, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			seen := map[model.SensorID]bool{}
			for _, s := range dep.Sensors {
				if seen[s.ID] {
					t.Fatalf("%d per group, seed %d: sensor ID %s is generated twice", perGroup, seed, s.ID)
				}
				seen[s.ID] = true
				if perGroup <= len(attrs) && !strings.HasSuffix(string(s.ID), "-0") {
					t.Errorf("%d per group, seed %d: sensor ID %s, want suffix -0", perGroup, seed, s.ID)
				}
			}
			if len(dep.SensorHost) != len(dep.Sensors) {
				t.Fatalf("%d per group, seed %d: %d hosts for %d sensors", perGroup, seed, len(dep.SensorHost), len(dep.Sensors))
			}
		}
	}
}
