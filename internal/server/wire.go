package server

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sensorcq"
)

// The JSON wire format of the control and data planes. Specs are what
// clients POST; wire structs are what the server returns. Every struct maps
// onto the public sensorcq types without exposing internal packages.

// SensorFilterSpec is one identified filter: a value range over a named
// sensor. The sensor's attribute type and location are resolved from the
// deployment, so clients only name the sensor.
type SensorFilterSpec struct {
	Sensor string  `json:"sensor"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// AttrFilterSpec is one abstract filter: a value range over an attribute
// type (e.g. "ambient-temperature").
type AttrFilterSpec struct {
	Attr string  `json:"attr"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// RegionSpec is the rectangular spatial constraint of an abstract
// subscription, spanned by two opposite corners.
type RegionSpec struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

// BackpressureSpec selects the sink policy of one subscription:
// "drop_newest" (default), "drop_oldest" or "block" with a timeout in
// milliseconds.
type BackpressureSpec struct {
	Mode      string `json:"mode"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// AggregateSpecWire turns a subscription spec into a windowed aggregate
// continuous query over its single attribute filter. Quantile, Lo, Hi,
// Bits and K parameterise the q-digest sketch and apply to func "quantile"
// only; Exact selects the ship-every-reading baseline instead.
type AggregateSpecWire struct {
	Func         string  `json:"func"`
	WindowRounds int     `json:"window_rounds"`
	Quantile     float64 `json:"quantile,omitempty"`
	Lo           float64 `json:"lo,omitempty"`
	Hi           float64 `json:"hi,omitempty"`
	Bits         uint    `json:"bits,omitempty"`
	K            int     `json:"k,omitempty"`
	Exact        bool    `json:"exact,omitempty"`
}

// SubscriptionSpec is the POST /subscriptions request body. Exactly one of
// Sensors (identified subscription) or Attributes (abstract subscription)
// must be non-empty. With Aggregate set, the spec must carry exactly one
// attribute filter and registers a windowed aggregate query instead of a
// complex-event subscription.
type SubscriptionSpec struct {
	ID     string `json:"id"`
	Node   *int   `json:"node,omitempty"`
	DeltaT int64  `json:"delta_t"`
	// DeltaL is the spatial correlation distance of an abstract
	// subscription; omitted means unconstrained.
	DeltaL *float64 `json:"delta_l,omitempty"`
	// Region bounds an abstract subscription's sensors; omitted means
	// everywhere.
	Region       *RegionSpec        `json:"region,omitempty"`
	Sensors      []SensorFilterSpec `json:"sensors,omitempty"`
	Attributes   []AttrFilterSpec   `json:"attributes,omitempty"`
	Aggregate    *AggregateSpecWire `json:"aggregate,omitempty"`
	SinkBuffer   *int               `json:"sink_buffer,omitempty"`
	Backpressure *BackpressureSpec  `json:"backpressure,omitempty"`
}

// SubscriptionStatus is the wire form of one registered subscription.
type SubscriptionStatus struct {
	ID            string `json:"id"`
	Node          int    `json:"node"`
	Active        bool   `json:"active"`
	Streaming     bool   `json:"streaming"`
	Delivered     int64  `json:"delivered"`
	DroppedPushes int64  `json:"dropped_pushes"`
}

// EventSpec is one reading POSTed to /events. A body is a batch of them
// separated by whitespace, so one JSON object and an NDJSON batch (one per
// line) parse alike, whatever the Content-Type. The sensor's attribute type
// and location are resolved from the deployment. A zero Seq is assigned
// from the server's own counter; callers injecting their own sequence
// numbers should do so for every event. There is no round field: the
// engine stamps every injected reading with its own round.
type EventSpec struct {
	Seq    uint64  `json:"seq,omitempty"`
	Sensor string  `json:"sensor"`
	Value  float64 `json:"value"`
	Time   int64   `json:"time"`
}

// EventWire is one component reading of a delivered complex event.
type EventWire struct {
	Seq    uint64  `json:"seq"`
	Sensor string  `json:"sensor"`
	Attr   string  `json:"attr"`
	Value  float64 `json:"value"`
	Time   int64   `json:"time"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

// JSONFloat is a float64 that survives JSON encoding when non-finite: an
// empty window's min/max/mean/quantile is NaN, which encoding/json rejects,
// so NaN and the infinities are carried as null instead of killing the SSE
// stream.
type JSONFloat float64

// MarshalJSON encodes non-finite values as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes null back to NaN.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// AggregateResultWire is one finalised window of an aggregate query. Value
// is null when the window was empty and the aggregate has no neutral
// element (min, max, mean, quantile).
type AggregateResultWire struct {
	Window     int       `json:"window"`
	StartRound int       `json:"start_round"`
	EndRound   int       `json:"end_round"`
	Value      JSONFloat `json:"value"`
	Count      int64     `json:"count"`
}

// DeliveryWire is the data frame of the SSE stream: one complex event — or,
// for an aggregate query, one finalised window — delivered to a
// subscription. Exactly one of Events and Aggregate is set.
type DeliveryWire struct {
	Subscription string               `json:"subscription"`
	Node         int                  `json:"node"`
	Round        int                  `json:"round"`
	Events       []EventWire          `json:"events,omitempty"`
	Aggregate    *AggregateResultWire `json:"aggregate,omitempty"`
}

// TrafficWire mirrors sensorcq.TrafficStats.
type TrafficWire struct {
	AdvertisementLoad     int64 `json:"advertisement_load"`
	SubscriptionLoad      int64 `json:"subscription_load"`
	UnsubscriptionLoad    int64 `json:"unsubscription_load"`
	EventLoad             int64 `json:"event_load"`
	PartialAggregateLoad  int64 `json:"partial_aggregate_load"`
	PartialAggregateBytes int64 `json:"partial_aggregate_bytes"`
}

// IndexWire mirrors sensorcq.IndexStats.
type IndexWire struct {
	Trees      int   `json:"trees"`
	Members    int   `json:"members"`
	Boxes      int   `json:"boxes"`
	MaxHeight  int   `json:"max_height"`
	Lookups    int64 `json:"lookups"`
	Candidates int64 `json:"candidates"`
}

// MetricsWire is the GET /metrics response body.
type MetricsWire struct {
	Approach        string      `json:"approach"`
	Subscriptions   int         `json:"subscriptions"`
	Delivered       int64       `json:"delivered"`
	DroppedPushes   int64       `json:"dropped_pushes"`
	DroppedMessages int64       `json:"dropped_messages"`
	Watermark       int         `json:"watermark"`
	Traffic         TrafficWire `json:"traffic"`
	Index           IndexWire   `json:"index"`
}

// maxSinkBuffer bounds a client's sink_buffer: the channel is allocated up
// front, and an allocation the runtime cannot satisfy is a fatal error that
// no handler recover catches.
const maxSinkBuffer = 1 << 16

// errorWire is the JSON body of every non-2xx response.
type errorWire struct {
	Error string `json:"error"`
}

// buildSubscription translates a spec into a sensorcq.Subscription plus the
// node and subscribe options to register it with. Validation errors are
// client errors (HTTP 400).
func (s *Server) buildSubscription(spec *SubscriptionSpec) (*sensorcq.Subscription, sensorcq.NodeID, []sensorcq.SubscribeOption, error) {
	switch spec.ID {
	case "":
		return nil, 0, nil, fmt.Errorf("subscription id is required")
	case ".", "..":
		// A dot segment is cleaned out of /subscriptions/{id}, so the
		// subscription could never be read, streamed or retracted.
		return nil, 0, nil, fmt.Errorf("subscription id %q is a path dot segment", spec.ID)
	}
	if (len(spec.Sensors) == 0) == (len(spec.Attributes) == 0) {
		return nil, 0, nil, fmt.Errorf("exactly one of sensors (identified) or attributes (abstract) must be set")
	}

	dep := s.sys.Deployment()
	node := s.cfg.DefaultNode
	if spec.Node != nil {
		node = sensorcq.NodeID(*spec.Node)
		if int(node) < 0 || int(node) >= dep.Graph.NumNodes() {
			return nil, 0, nil, fmt.Errorf("node %d outside deployment [0,%d)", node, dep.Graph.NumNodes())
		}
	}

	var sub *sensorcq.Subscription
	var err error
	if spec.Aggregate != nil {
		if len(spec.Sensors) != 0 || len(spec.Attributes) != 1 {
			return nil, 0, nil, fmt.Errorf("an aggregate subscription needs exactly one attribute filter (and no sensor filters)")
		}
		f := spec.Attributes[0]
		if f.Attr == "" {
			return nil, 0, nil, fmt.Errorf("attribute filter: attr is required")
		}
		fn, ferr := sensorcq.ParseAggregateFunc(spec.Aggregate.Func)
		if ferr != nil {
			return nil, 0, nil, ferr
		}
		region := sensorcq.Everywhere()
		if spec.Region != nil {
			region = sensorcq.NewRegion(spec.Region.X0, spec.Region.Y0, spec.Region.X1, spec.Region.Y1)
		}
		sub, err = sensorcq.NewAggregateSubscription(
			sensorcq.SubscriptionID(spec.ID),
			sensorcq.AttributeFilter{Attr: sensorcq.AttributeType(f.Attr), Range: sensorcq.NewInterval(f.Min, f.Max)},
			region,
			sensorcq.AggregateSpec{
				Func:         fn,
				WindowRounds: spec.Aggregate.WindowRounds,
				Quantile:     spec.Aggregate.Quantile,
				Lo:           spec.Aggregate.Lo,
				Hi:           spec.Aggregate.Hi,
				Bits:         spec.Aggregate.Bits,
				K:            spec.Aggregate.K,
				Exact:        spec.Aggregate.Exact,
			},
		)
	} else if len(spec.Sensors) > 0 {
		filters := make([]sensorcq.SensorFilter, len(spec.Sensors))
		for i, f := range spec.Sensors {
			sensor, ok := s.sensorByID(sensorcq.SensorID(f.Sensor))
			if !ok {
				return nil, 0, nil, fmt.Errorf("unknown sensor %q", f.Sensor)
			}
			filters[i] = sensorcq.SensorFilter{
				Sensor:   sensor.ID,
				Attr:     sensor.Attr,
				Location: sensor.Location,
				Range:    sensorcq.NewInterval(f.Min, f.Max),
			}
		}
		sub, err = sensorcq.NewIdentifiedSubscription(sensorcq.SubscriptionID(spec.ID), filters, sensorcq.Timestamp(spec.DeltaT))
	} else {
		filters := make([]sensorcq.AttributeFilter, len(spec.Attributes))
		for i, f := range spec.Attributes {
			if f.Attr == "" {
				return nil, 0, nil, fmt.Errorf("attribute filter %d: attr is required", i)
			}
			filters[i] = sensorcq.AttributeFilter{
				Attr:  sensorcq.AttributeType(f.Attr),
				Range: sensorcq.NewInterval(f.Min, f.Max),
			}
		}
		region := sensorcq.Everywhere()
		if spec.Region != nil {
			region = sensorcq.NewRegion(spec.Region.X0, spec.Region.Y0, spec.Region.X1, spec.Region.Y1)
		}
		deltaL := sensorcq.NoSpatialConstraint
		if spec.DeltaL != nil {
			deltaL = *spec.DeltaL
		}
		sub, err = sensorcq.NewAbstractSubscription(sensorcq.SubscriptionID(spec.ID), filters, region, sensorcq.Timestamp(spec.DeltaT), deltaL)
	}
	if err != nil {
		return nil, 0, nil, err
	}

	buffer := DefaultSinkBuffer
	if spec.SinkBuffer != nil {
		if *spec.SinkBuffer < 1 {
			return nil, 0, nil, fmt.Errorf("sink_buffer must be >= 1 (the SSE stream needs a channel sink)")
		}
		if *spec.SinkBuffer > maxSinkBuffer {
			return nil, 0, nil, fmt.Errorf("sink_buffer must be <= %d", maxSinkBuffer)
		}
		buffer = *spec.SinkBuffer
	}
	mode, timeout := sensorcq.DropNewest, time.Duration(0)
	if spec.Backpressure != nil {
		mode, err = sensorcq.ParseBackpressureMode(spec.Backpressure.Mode)
		if err != nil {
			return nil, 0, nil, err
		}
		timeout = time.Duration(spec.Backpressure.TimeoutMS) * time.Millisecond
	}
	opts := []sensorcq.SubscribeOption{
		sensorcq.WithSinkBuffer(buffer),
		sensorcq.WithBackpressure(mode, timeout),
	}
	return sub, node, opts, nil
}

// buildEvent translates an EventSpec into a reading, resolving the sensor's
// attribute type and location from the deployment.
func (s *Server) buildEvent(spec *EventSpec) (sensorcq.Event, error) {
	sensor, ok := s.sensorByID(sensorcq.SensorID(spec.Sensor))
	if !ok {
		return sensorcq.Event{}, fmt.Errorf("unknown sensor %q", spec.Sensor)
	}
	seq := spec.Seq
	if seq == 0 {
		seq = s.seq.Add(1)
	}
	return sensorcq.Event{
		Seq:      seq,
		Sensor:   sensor.ID,
		Attr:     sensor.Attr,
		Location: sensor.Location,
		Value:    spec.Value,
		Time:     sensorcq.Timestamp(spec.Time),
	}, nil
}

// deliveryWire converts a delivery into its SSE frame payload.
func deliveryWire(d sensorcq.Delivery) DeliveryWire {
	if d.Aggregate != nil {
		return DeliveryWire{
			Subscription: string(d.SubID),
			Node:         int(d.Node),
			Round:        d.Round,
			Aggregate: &AggregateResultWire{
				Window:     d.Aggregate.Window,
				StartRound: d.Aggregate.StartRound,
				EndRound:   d.Aggregate.EndRound,
				Value:      JSONFloat(d.Aggregate.Value),
				Count:      d.Aggregate.Count,
			},
		}
	}
	events := make([]EventWire, len(d.Events))
	for i, ev := range d.Events {
		events[i] = EventWire{
			Seq:    ev.Seq,
			Sensor: string(ev.Sensor),
			Attr:   string(ev.Attr),
			Value:  ev.Value,
			Time:   int64(ev.Time),
			X:      ev.Location.X,
			Y:      ev.Location.Y,
		}
	}
	return DeliveryWire{
		Subscription: string(d.SubID),
		Node:         int(d.Node),
		Round:        d.Round,
		Events:       events,
	}
}
