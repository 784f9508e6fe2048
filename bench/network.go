package main

import (
	"context"
	"fmt"

	"sensorcq"
	"sensorcq/internal/experiment"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
)

// engineConfig selects the runtime a workload runs on.
type engineConfig struct {
	concurrent bool
	workers    int
	delivery   netsim.DeliveryMode
	lag        int
}

// traffic is the subset of the program's traffic counters the report uses.
type traffic struct {
	advertisement, subscription, unsubscription, event int64
}

func (t traffic) minus(o traffic) traffic {
	return traffic{
		advertisement:  t.advertisement - o.advertisement,
		subscription:   t.subscription - o.subscription,
		unsubscription: t.unsubscription - o.unsubscription,
		event:          t.event - o.event,
	}
}

// network is the library surface the replay and control workloads drive. The
// end-to-end runs use the public facade (systemNet); the traced runs rebuild
// the same network directly on a netsim engine (engineNet), because that is
// the only place a decorated handler factory can be passed in.
type network interface {
	subscribe(node topology.NodeID, sub *model.Subscription) error
	unsubscribe(node topology.NodeID, id model.SubscriptionID) error
	replay(rounds [][]model.Event) error
	traffic() traffic
	dropped() int64
	deliveries() []netsim.Delivery
	deliveredSeqs(id model.SubscriptionID) map[uint64]bool
	close()
}

// systemNet drives a sensorcq.System.
type systemNet struct {
	sys  *sensorcq.System
	opts []sensorcq.SubscribeOption
}

func newSystemNet(in *inputs, cfg engineConfig, opts ...sensorcq.SubscribeOption) (*systemNet, error) {
	sys, err := sensorcq.NewSystem(in.dep, sensorcq.Config{
		Approach: sensorcq.FilterSplitForward, Seed: in.fsfSeed(),
		Concurrent: cfg.concurrent, Workers: cfg.workers, Delivery: cfg.delivery, Lag: cfg.lag,
	})
	if err != nil {
		return nil, err
	}
	return &systemNet{sys: sys, opts: opts}, nil
}

func (n *systemNet) subscribe(node topology.NodeID, sub *model.Subscription) error {
	_, err := n.sys.Subscribe(node, sub, n.opts...)
	return err
}

func (n *systemNet) unsubscribe(_ topology.NodeID, id model.SubscriptionID) error {
	return n.sys.Unsubscribe(id)
}

func (n *systemNet) replay(rounds [][]model.Event) error { return n.sys.ReplayRounds(rounds) }

func (n *systemNet) traffic() traffic {
	t := n.sys.Traffic()
	return traffic{
		advertisement: t.AdvertisementLoad, subscription: t.SubscriptionLoad,
		unsubscription: t.UnsubscriptionLoad, event: t.EventLoad,
	}
}

func (n *systemNet) dropped() int64                { return n.sys.DroppedMessages() }
func (n *systemNet) deliveries() []netsim.Delivery { return n.sys.Deliveries() }
func (n *systemNet) close()                        { _ = n.sys.Close() }

func (n *systemNet) deliveredSeqs(id model.SubscriptionID) map[uint64]bool {
	return n.sys.DeliveredEventSeqs(id)
}

// engineNet drives a netsim runtime the way sensorcq.NewSystem sets one up:
// same approach factory, same validity factor, sensors attached and
// advertised before it is handed out.
type engineNet struct {
	in   *inputs
	rt   netsim.Runtime
	conc *netsim.ConcurrentEngine
	opts netsim.ReplayOptions
}

// newEngineNet builds the network on a bare engine; with a recorder, under
// the tracing handler.
func newEngineNet(in *inputs, cfg engineConfig, rec *recorder) (*engineNet, error) {
	factory, err := experiment.FactoryForSpec(experiment.FilterSplitForward, experiment.FactorySpec{
		Seed:           in.fsfSeed(),
		ValidityFactor: netsim.RequiredValidityFactor(cfg.delivery, cfg.lag),
	})
	if err != nil {
		return nil, err
	}
	n := &engineNet{in: in, opts: netsim.ReplayOptions{Mode: cfg.delivery, Lag: cfg.lag}}
	if cfg.concurrent {
		n.conc = netsim.NewConcurrentEngineWorkers(in.dep.Graph, rec.wrap(factory), cfg.workers)
		n.rt = n.conc
	} else {
		n.rt = netsim.NewEngine(in.dep.Graph, rec.wrap(factory))
	}
	for _, sensor := range in.dep.Sensors {
		if err := n.rt.AttachSensor(in.dep.SensorHost[sensor.ID], sensor); err != nil {
			n.close()
			return nil, fmt.Errorf("attaching sensor %s: %w", sensor.ID, err)
		}
	}
	n.rt.Flush()
	return n, nil
}

// subscribe waits for the registration to propagate, as the facade does: the
// concurrent engine's plain Subscribe only enqueues it.
func (n *engineNet) subscribe(node topology.NodeID, sub *model.Subscription) error {
	return n.rt.SubscribeContext(context.Background(), node, sub)
}

func (n *engineNet) unsubscribe(node topology.NodeID, id model.SubscriptionID) error {
	if err := n.rt.Unsubscribe(node, id); err != nil {
		return err
	}
	n.rt.Flush()
	n.rt.EvictDeliveries(id)
	return nil
}

func (n *engineNet) replay(rounds [][]model.Event) error {
	pubs := make([][]netsim.Publication, len(rounds))
	for r, events := range rounds {
		pubs[r] = make([]netsim.Publication, len(events))
		for i, ev := range events {
			pubs[r][i] = netsim.Publication{Node: n.in.dep.SensorHost[ev.Sensor], Event: ev}
		}
	}
	if err := n.rt.ReplayRounds(pubs, n.opts); err != nil {
		return err
	}
	n.rt.Flush()
	return nil
}

func (n *engineNet) traffic() traffic {
	s := n.rt.Metrics().Snapshot()
	return traffic{
		advertisement: s.AdvertisementLoad, subscription: s.SubscriptionLoad,
		unsubscription: s.UnsubscriptionLoad, event: s.EventLoad,
	}
}

func (n *engineNet) dropped() int64                { return n.rt.Metrics().DroppedMessages() }
func (n *engineNet) deliveries() []netsim.Delivery { return n.rt.Deliveries() }

func (n *engineNet) deliveredSeqs(id model.SubscriptionID) map[uint64]bool {
	return n.rt.Metrics().DeliveredSeqs(id)
}

func (n *engineNet) close() {
	n.rt.Flush()
	if n.conc != nil {
		n.conc.Close()
	}
}
