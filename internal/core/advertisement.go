package core

import (
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// This file implements advertisement propagation (Algorithm 1): a
// straight-forward flood of data-source advertisements, stored per
// originating neighbour so that incoming subscriptions can follow the
// reverse dissemination path.

// LocalSensor implements netsim.Handler. A new sensor attached to this node
// is recorded under the node's own ID and advertised to every neighbour,
// under the ref the network's registry gave it on attach.
func (n *Node) LocalSensor(ctx *netsim.Context, sensor model.Sensor) {
	ref, ok := ctx.Sensors().Lookup(sensor.ID)
	if !ok {
		return // the engines register a sensor before attaching it
	}
	adv := ctx.Sensors().Advertisement(ref)
	if !n.advs.Add(n.self, adv) {
		return
	}
	for _, j := range ctx.Neighbors() {
		ctx.SendAdvertisement(j, adv)
	}
}

// HandleAdvertisement implements netsim.Handler. Advertisements received
// from a neighbour are stored under that neighbour and re-flooded to every
// other neighbour (Algorithm 1, lines 8-13).
func (n *Node) HandleAdvertisement(ctx *netsim.Context, from topology.NodeID, adv model.Advertisement) {
	if !n.advs.Add(from, adv) {
		return
	}
	for _, j := range ctx.Neighbors() {
		if j != from {
			ctx.SendAdvertisement(j, adv)
		}
	}
}
