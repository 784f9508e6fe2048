package topology

import (
	"fmt"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

// DeploymentConfig describes a SensorScope-like deployment: TotalNodes
// processing nodes, SensorNodes of which host exactly one sensor each, the
// sensors grouped behind Groups base stations (one hub node per group), with
// attribute types assigned round-robin within each group. The remaining
// nodes are relay nodes; subscriptions are attached to them by the workload
// generator.
//
// This mirrors the paper's experiment setups, e.g. the small-scale
// experiment uses TotalNodes=60, SensorNodes=50, Groups=10 and the default
// five attribute types.
type DeploymentConfig struct {
	TotalNodes  int
	SensorNodes int
	Groups      int
	Attributes  []model.AttributeType
	// GroupSpacing is the distance between neighbouring group centres in
	// location units (default 1000).
	GroupSpacing float64
	// GroupRadius is the spread of sensors around their group centre
	// (default 50).
	GroupRadius float64
	// Seed drives node placement and backbone wiring.
	Seed int64
}

// Validate checks the configuration for consistency.
func (c DeploymentConfig) Validate() error {
	if c.TotalNodes <= 0 {
		return fmt.Errorf("topology: TotalNodes must be positive, got %d", c.TotalNodes)
	}
	if c.SensorNodes <= 0 || c.SensorNodes >= c.TotalNodes {
		return fmt.Errorf("topology: SensorNodes must be in (0, TotalNodes), got %d of %d", c.SensorNodes, c.TotalNodes)
	}
	if c.Groups <= 0 || c.Groups > c.SensorNodes {
		return fmt.Errorf("topology: Groups must be in (0, SensorNodes], got %d", c.Groups)
	}
	if c.SensorNodes+c.Groups > c.TotalNodes {
		return fmt.Errorf("topology: need at least %d nodes for %d sensors plus %d group hubs, have %d",
			c.SensorNodes+c.Groups, c.SensorNodes, c.Groups, c.TotalNodes)
	}
	if len(c.Attributes) == 0 {
		return fmt.Errorf("topology: at least one attribute type required")
	}
	return nil
}

// Deployment is a generated network: the processing-node graph plus the
// mapping between nodes and the sensors they host.
type Deployment struct {
	Graph *Graph
	// Sensors lists every sensor in the deployment.
	Sensors []model.Sensor
	// SensorHost maps a sensor to the node it is attached to.
	SensorHost map[model.SensorID]NodeID
	// NodeSensors maps a node to the sensors attached to it (nil for
	// relay nodes).
	NodeSensors map[NodeID][]model.Sensor
	// GroupHubs lists the base-station hub node of each group.
	GroupHubs []NodeID
	// GroupMembers lists the sensor nodes of each group.
	GroupMembers [][]NodeID
	// GroupRegions is the bounding region of each group's sensors, grown a
	// little so that abstract subscriptions targeting the group match.
	GroupRegions []geom.Region
	// RelayNodes lists the nodes with no sensors attached (hub nodes
	// included); the workload generator places users on these.
	RelayNodes []NodeID
	// UserNodes lists relay nodes that are not group hubs; when non-empty
	// the workload generator prefers these for placing subscribers.
	UserNodes []NodeID
}

// IsSensorNode reports whether the node hosts at least one sensor.
func (d *Deployment) IsSensorNode(n NodeID) bool { return len(d.NodeSensors[n]) > 0 }

// SensorsOfAttr returns all sensors of the given attribute type.
func (d *Deployment) SensorsOfAttr(a model.AttributeType) []model.Sensor {
	var out []model.Sensor
	for _, s := range d.Sensors {
		if s.Attr == a {
			out = append(out, s)
		}
	}
	return out
}

// GenerateDeployment builds a deterministic deployment from the config.
//
// Layout: group hubs are placed on a grid with GroupSpacing between
// neighbouring centres; each group's sensor nodes attach directly to its hub
// and are placed within GroupRadius of the centre. Hubs and the remaining
// relay nodes are wired into a random backbone tree, so the overall graph is
// a tree (acyclic, connected) as the system model requires.
func GenerateDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	spacing := cfg.GroupSpacing
	if spacing <= 0 {
		spacing = 1000
	}
	radius := cfg.GroupRadius
	if radius <= 0 {
		radius = 50
	}

	g := NewGraph(cfg.TotalNodes)
	dep := &Deployment{
		Graph:       g,
		SensorHost:  map[model.SensorID]NodeID{},
		NodeSensors: map[NodeID][]model.Sensor{},
	}

	// Node ID allocation:
	//   [0, SensorNodes)                     sensor nodes
	//   [SensorNodes, SensorNodes+Groups)    group hub nodes
	//   [SensorNodes+Groups, TotalNodes)     pure relay nodes
	sensorBase := 0
	hubBase := cfg.SensorNodes
	relayBase := cfg.SensorNodes + cfg.Groups

	// Grid of group centres.
	cols := 1
	for cols*cols < cfg.Groups {
		cols++
	}
	groupCenter := make([]geom.Point2D, cfg.Groups)
	for gi := 0; gi < cfg.Groups; gi++ {
		row := gi / cols
		col := gi % cols
		groupCenter[gi] = geom.Point2D{X: float64(col) * spacing, Y: float64(row) * spacing}
	}

	// Distribute sensor nodes over groups as evenly as possible. Following
	// the paper's emulation of the SensorScope deployment ("grouping nodes
	// with sensors from the same base station in a vicinity, such that they
	// are neighbors"), the sensor nodes of a group form a chain hanging off
	// the group's hub: hub — s1 — s2 — ... This gives subscriptions depth
	// below the point where user paths converge, which is where the
	// filter/split phases save forwarding hops.
	perGroup := cfg.SensorNodes / cfg.Groups
	extra := cfg.SensorNodes % cfg.Groups
	next := sensorBase
	dep.GroupHubs = make([]NodeID, cfg.Groups)
	dep.GroupMembers = make([][]NodeID, cfg.Groups)
	dep.GroupRegions = make([]geom.Region, cfg.Groups)
	for gi := 0; gi < cfg.Groups; gi++ {
		hub := NodeID(hubBase + gi)
		dep.GroupHubs[gi] = hub
		count := perGroup
		if gi < extra {
			count++
		}
		region := geom.RegionAround(groupCenter[gi], radius*1.5)
		dep.GroupRegions[gi] = region
		// Shuffle the attribute order along the chain so that different
		// groups expose their sensors in different orders.
		order := rng.Perm(count)
		// perAttr numbers each attribute type's sensors within the group,
		// so sensor IDs are unique however many sensors a group holds.
		perAttr := map[model.AttributeType]int{}
		prev := hub
		for k := 0; k < count; k++ {
			node := NodeID(next)
			next++
			dep.GroupMembers[gi] = append(dep.GroupMembers[gi], node)
			if err := g.AddEdge(prev, node); err != nil {
				return nil, err
			}
			prev = node
			attr := cfg.Attributes[order[k]%len(cfg.Attributes)]
			loc := geom.Point2D{
				X: groupCenter[gi].X + rng.Range(-radius, radius),
				Y: groupCenter[gi].Y + rng.Range(-radius, radius),
			}
			sensor := model.Sensor{
				ID:       model.SensorID(fmt.Sprintf("g%02d-%s-%d", gi, attr, perAttr[attr])),
				Attr:     attr,
				Location: loc,
			}
			perAttr[attr]++
			dep.Sensors = append(dep.Sensors, sensor)
			dep.SensorHost[sensor.ID] = node
			dep.NodeSensors[node] = append(dep.NodeSensors[node], sensor)
		}
	}

	// Backbone: pure relay nodes form a random tree; every hub attaches to a
	// random backbone node. When there are no pure relay nodes the hubs form
	// the backbone themselves.
	numRelays := cfg.TotalNodes - relayBase
	if numRelays > 0 {
		// Random tree over relay nodes (attach each to a random earlier one).
		for i := 1; i < numRelays; i++ {
			parent := NodeID(relayBase + rng.Intn(i))
			if err := g.AddEdge(NodeID(relayBase+i), parent); err != nil {
				return nil, err
			}
		}
		for gi := 0; gi < cfg.Groups; gi++ {
			attach := NodeID(relayBase + rng.Intn(numRelays))
			if err := g.AddEdge(dep.GroupHubs[gi], attach); err != nil {
				return nil, err
			}
		}
	} else {
		// Chain the hubs.
		for gi := 1; gi < cfg.Groups; gi++ {
			if err := g.AddEdge(dep.GroupHubs[gi-1], dep.GroupHubs[gi]); err != nil {
				return nil, err
			}
		}
	}

	for n := 0; n < cfg.TotalNodes; n++ {
		id := NodeID(n)
		if !dep.IsSensorNode(id) {
			dep.RelayNodes = append(dep.RelayNodes, id)
			if n >= relayBase {
				dep.UserNodes = append(dep.UserNodes, id)
			}
		}
	}
	if len(dep.UserNodes) == 0 {
		dep.UserNodes = dep.GroupHubs
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated graph invalid: %w", err)
	}
	return dep, nil
}
