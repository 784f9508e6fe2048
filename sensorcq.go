// Package sensorcq is a library for evaluating continuous multi-join queries
// (subscriptions) over distributed sensor networks. It reproduces the system
// described in "Continuous Query Evaluation over Distributed Sensor
// Networks" (Jurca, Michel, Herrmann, Aberer — ICDE 2010): a
// publish/subscribe layer over an acyclic network of processing nodes in
// which subscriptions are filtered, split and forwarded towards the sensors
// along reverse advertisement paths, and sensor readings are correlated into
// complex events as close to their sources as possible.
//
// The package exposes:
//
//   - the data model (sensors, advertisements, events, filters, identified
//     and abstract subscriptions),
//   - the five protocol variants evaluated in the paper (centralized, naive,
//     distributed operator placement, distributed multi-join, and the
//     paper's Filter-Split-Forward approach),
//   - deployment, trace and workload generators that emulate the paper's
//     SensorScope-based evaluation, and
//   - the experiment harness and report writers that regenerate every figure
//     of the paper's evaluation section.
//
// Most applications start from GenerateDeployment (or NewTopology for a
// hand-built network), create a System with the approach of their choice,
// register subscriptions and publish readings:
//
//	dep, _ := sensorcq.GenerateDeployment(sensorcq.DeploymentConfig{
//	    TotalNodes: 60, SensorNodes: 50, Groups: 10,
//	    Attributes: sensorcq.DefaultAttributes(), Seed: 1,
//	})
//	sys, _ := sensorcq.NewSystem(dep, sensorcq.Config{Approach: sensorcq.FilterSplitForward})
//	defer sys.Close()
//
// # Subscription lifecycle
//
// Subscriptions are continuous queries with a full lifecycle. Subscribe
// returns a *SubscriptionHandle that streams results as they are produced
// and can retract the query again; Unsubscribe propagates the retraction
// through the whole network (stored operators are removed along the reverse
// forwarding paths, operators that were shared or subsumed by the retracted
// query are re-exposed for their remaining dependants) and closes the
// handle's delivery channel:
//
//	handle, err := sys.Subscribe(userNode, sub)         // register
//	if err != nil { ... }                               // e.g. ErrDuplicateSubscription
//	go func() {
//	    for d := range handle.Deliveries() {            // stream results (push)
//	        fmt.Println("complex event:", d.Events)
//	    }                                               // loop ends at Unsubscribe
//	}()
//	_ = sys.Publish(reading)                            // results flow to the handle
//	_ = handle.Unsubscribe()                            // retract network-wide
//
// After Unsubscribe returns, a replayed trace produces zero further
// deliveries for the retracted subscription and strictly less event traffic;
// the handle's counters (Delivered, DroppedPushes) remain readable, and so
// does its pull log (System.DeliveriesFor) when it was subscribed
// WithRetainLog. Failures on this surface are typed sentinel errors —
// ErrUnknownSensor, ErrClosed, ErrUnsubscribed, ErrDuplicateSubscription,
// ErrUnknownSubscription — matched with errors.Is.
//
// # Cancellation and backpressure
//
// Every mutating method that waits for the network has a context-aware
// variant (SubscribeContext, PublishContext, PublishBatchContext,
// ReplayRoundsContext, CloseContext) whose context bounds the wait for
// network-wide propagation; the plain forms delegate with
// context.Background() at zero extra cost. Cancellation aborts the wait
// with the context's error, never corrupts the network: a cancelled
// Subscribe retracts its half-propagated registration, a cancelled Publish
// lets the reading finish propagating on a later drain. The delivery
// channel of a handle applies one of three backpressure policies when the
// consumer falls behind — DropNewest (the default, count-and-drop),
// DropOldest, or BlockWithTimeout — selected per subscription with
// WithBackpressure. Servers wrapping a System for remote consumers (see
// cmd/cqd and internal/server) are the intended users of both knobs.
package sensorcq

import (
	"sensorcq/internal/agg"
	"sensorcq/internal/dataset"
	"sensorcq/internal/experiment"
	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/topology"
	"sensorcq/internal/workload"
)

// Core model types, re-exported for users of the public API.
type (
	// AttributeType identifies a kind of measurement (temperature, ...).
	AttributeType = model.AttributeType
	// SensorID identifies a physical sensor (data source).
	SensorID = model.SensorID
	// SubscriptionID identifies a subscription or correlation operator.
	SubscriptionID = model.SubscriptionID
	// Timestamp is a logical time value in trace units (seconds).
	Timestamp = model.Timestamp
	// Sensor is a data source of a fixed type at a known location.
	Sensor = model.Sensor
	// Advertisement announces a sensor to the network.
	Advertisement = model.Advertisement
	// Event is one sensor reading.
	Event = model.Event
	// ComplexEvent is a set of time-correlated readings matching a
	// subscription.
	ComplexEvent = model.ComplexEvent
	// AttributeFilter is a range condition over an attribute type.
	AttributeFilter = model.AttributeFilter
	// SensorFilter is a range condition bound to a specific sensor.
	SensorFilter = model.SensorFilter
	// Subscription is a user subscription or correlation operator.
	Subscription = model.Subscription

	// Interval is a closed numeric interval.
	Interval = geom.Interval
	// Point is a location in the 2D plane.
	Point = geom.Point2D
	// Region is an axis-aligned rectangle in the location domain.
	Region = geom.Region

	// NodeID identifies a processing node.
	NodeID = topology.NodeID
	// Graph is the acyclic processing-node network.
	Graph = topology.Graph
	// Deployment is a generated network plus its sensors.
	Deployment = topology.Deployment
	// DeploymentConfig parameterises deployment generation.
	DeploymentConfig = topology.DeploymentConfig

	// Delivery is a complex event handed to a subscribing user.
	Delivery = netsim.Delivery
	// AggregateResult is one finalised window of an aggregate query,
	// carried by a Delivery in place of complex events.
	AggregateResult = netsim.AggregateResult
	// AggregateSpec turns a subscription into a windowed GROUP-BY-time
	// aggregate query (see NewAggregateSubscription).
	AggregateSpec = model.AggregateSpec
	// AggregateFunc names an aggregate function (AggCount, AggSum, ...).
	AggregateFunc = agg.Func
	// DeliveryMode selects the replay delivery semantics (quiescent or
	// pipelined).
	DeliveryMode = netsim.DeliveryMode

	// TraceConfig parameterises synthetic trace generation.
	TraceConfig = dataset.Config
	// Trace is a generated measurement trace.
	Trace = dataset.Trace
	// TraceStats summarises a trace's per-attribute value distribution —
	// the only part of a trace the workload generator consumes.
	TraceStats = dataset.Stats
	// TraceStreamer generates a trace one round at a time without
	// materialising it; rounds alias a reusable buffer.
	TraceStreamer = dataset.Streamer
	// AttributeProfile describes the synthetic behaviour of one attribute.
	AttributeProfile = dataset.AttributeProfile
	// WorkloadConfig parameterises subscription-workload generation.
	WorkloadConfig = workload.Config
	// PlacedSubscription is a generated subscription plus its user's node.
	PlacedSubscription = workload.Placed
	// WorkloadStream generates subscriptions one at a time without
	// materialising the whole workload.
	WorkloadStream = workload.Stream

	// Scenario describes one of the paper's experimental setups.
	Scenario = experiment.Scenario
	// ExperimentOptions tweaks an experiment run.
	ExperimentOptions = experiment.Options
	// Result is the outcome of an experiment run.
	Result = experiment.Result
	// ApproachSeries is one approach's measurement series.
	ApproachSeries = experiment.ApproachSeries
	// SeriesPoint is one measurement point of a series.
	SeriesPoint = experiment.SeriesPoint
)

// The paper's five SensorScope measurement types.
const (
	AmbientTemperature = model.AmbientTemperature
	SurfaceTemperature = model.SurfaceTemperature
	RelativeHumidity   = model.RelativeHumidity
	WindSpeed          = model.WindSpeed
	WindDirection      = model.WindDirection
)

// The replay delivery semantics of Config.Delivery: Quiescent fully
// propagates every event before the next one is injected (the deterministic
// baseline); Pipelined injects a whole measurement round before draining,
// letting a concurrent System evaluate the round in parallel; Windowed
// additionally overlaps up to Config.Lag+1 successive rounds in flight,
// gated on a network watermark, so the concurrent engine never idles at a
// round boundary.
const (
	Quiescent = netsim.Quiescent
	Pipelined = netsim.Pipelined
	Windowed  = netsim.Windowed
)

// ParseDeliveryMode maps the CLI spelling of a delivery mode ("quiescent",
// "pipelined", "windowed") onto its value.
func ParseDeliveryMode(s string) (DeliveryMode, error) { return netsim.ParseDeliveryMode(s) }

// DeliveryModeNames returns the CLI spellings of every delivery mode; CLIs
// use it to print usage messages that stay in sync with the engine.
func DeliveryModeNames() []string { return netsim.DeliveryModeNames() }

// The aggregate functions of a windowed aggregate query. AggQuantile uses a
// mergeable q-digest sketch with rank error ε = Bits/K unless the spec's
// Exact flag selects the ship-every-reading baseline.
const (
	AggCount    = agg.Count
	AggSum      = agg.Sum
	AggMin      = agg.Min
	AggMax      = agg.Max
	AggMean     = agg.Mean
	AggQuantile = agg.Quantile
)

// ParseAggregateFunc maps the wire spelling of an aggregate function
// ("count", "sum", "min", "max", "mean", "quantile") onto its value.
func ParseAggregateFunc(s string) (AggregateFunc, error) { return agg.ParseFunc(s) }

// AggregateFuncNames returns the wire spellings of every aggregate function.
func AggregateFuncNames() []string { return agg.FuncNames() }

// NewAggregateSubscription builds a windowed GROUP-BY-time continuous
// aggregate query: one attribute filter bound to a region, folded per
// tumbling window of spec.WindowRounds measurement rounds with the spec's
// aggregate function. Register it with System.Subscribe like any query; each
// finalised window arrives on the handle's delivery channel as a Delivery
// whose Aggregate field carries the result.
func NewAggregateSubscription(id SubscriptionID, filter AttributeFilter, region Region, spec AggregateSpec) (*Subscription, error) {
	return model.NewAggregateSubscription(id, filter, region, spec)
}

// NoSpatialConstraint disables the spatial correlation distance of an
// abstract subscription (δl = ∞).
var NoSpatialConstraint = model.NoSpatialConstraint

// DefaultAttributes returns the paper's five attribute types.
func DefaultAttributes() []AttributeType { return model.DefaultAttributes() }

// DefaultAttributeProfiles returns the synthetic generation profiles of the
// five default attribute types.
func DefaultAttributeProfiles() []AttributeProfile { return dataset.DefaultProfiles() }

// NewInterval returns the closed interval [min, max] (bounds are swapped if
// given in the wrong order).
func NewInterval(min, max float64) Interval { return geom.NewInterval(min, max) }

// NewRegion returns the rectangle spanned by two opposite corners.
func NewRegion(x0, y0, x1, y1 float64) Region { return geom.NewRegion(x0, y0, x1, y1) }

// RegionAround returns the square region of half-width radius centred on p.
func RegionAround(p Point, radius float64) Region { return geom.RegionAround(p, radius) }

// Everywhere returns the unbounded region (no spatial constraint).
func Everywhere() Region { return geom.WholePlane() }

// NewIdentifiedSubscription builds a subscription over explicitly named
// sensors with the given temporal correlation distance δt.
func NewIdentifiedSubscription(id SubscriptionID, filters []SensorFilter, deltaT Timestamp) (*Subscription, error) {
	return model.NewIdentifiedSubscription(id, filters, deltaT)
}

// NewAbstractSubscription builds a subscription over attribute types bound
// to a region, with temporal correlation distance δt and spatial correlation
// distance δl (use NoSpatialConstraint to disable the latter).
func NewAbstractSubscription(id SubscriptionID, filters []AttributeFilter, region Region, deltaT Timestamp, deltaL float64) (*Subscription, error) {
	return model.NewAbstractSubscription(id, filters, region, deltaT, deltaL)
}

// GenerateDeployment builds a SensorScope-like deployment: sensor nodes
// grouped behind base stations, wired into an acyclic processing network.
func GenerateDeployment(cfg DeploymentConfig) (*Deployment, error) {
	return topology.GenerateDeployment(cfg)
}

// GenerateTrace produces a synthetic measurement trace for a deployment.
func GenerateTrace(dep *Deployment, cfg TraceConfig) (*Trace, error) {
	return dataset.Generate(dep, cfg)
}

// NewTraceStreamer prepares round-by-round trace generation: the same rounds
// GenerateTrace would build, produced one at a time into a reusable buffer.
func NewTraceStreamer(dep *Deployment, cfg TraceConfig) (*TraceStreamer, error) {
	return dataset.NewStreamer(dep, cfg)
}

// GenerateWorkload produces subscriptions the way the paper's evaluation
// does: ranges centred on the trace's medians with Pareto-distributed
// widths, targeting every sensor group evenly.
func GenerateWorkload(dep *Deployment, trace *Trace, cfg WorkloadConfig) ([]PlacedSubscription, error) {
	return workload.Generate(dep, trace, cfg)
}

// NewWorkloadStream prepares one-at-a-time subscription generation from
// trace statistics (see TraceStreamer.Stats); it yields exactly the
// subscriptions GenerateWorkload would build for the same inputs.
func NewWorkloadStream(dep *Deployment, st TraceStats, roundInterval Timestamp, cfg WorkloadConfig) (*WorkloadStream, error) {
	return workload.NewStream(dep, st, roundInterval, cfg)
}
