// Package model defines the data model of Section IV of the paper: sensors,
// data-source advertisements, events, filters, identified and abstract
// subscriptions, correlation operators, and the matching semantics between
// (complex) events and subscriptions.
//
// The model is deliberately free of any networking concern: it only knows
// about values, not about nodes or links. The protocol packages build on it.
package model

import (
	"fmt"

	"sensorcq/internal/geom"
)

// AttributeType identifies the kind of measurement a sensor produces
// (temperature, humidity, ...). The paper denotes the set of attribute types
// as 𝒜.
type AttributeType string

// The five measurement types selected from the SensorScope Grand St. Bernard
// deployment used throughout the paper's evaluation (Section VI-A).
const (
	AmbientTemperature AttributeType = "ambient_temperature"
	SurfaceTemperature AttributeType = "surface_temperature"
	RelativeHumidity   AttributeType = "relative_humidity"
	WindSpeed          AttributeType = "wind_speed"
	WindDirection      AttributeType = "wind_direction"
)

// DefaultAttributes returns the paper's five attribute types in a stable
// order.
func DefaultAttributes() []AttributeType {
	return []AttributeType{
		AmbientTemperature,
		SurfaceTemperature,
		RelativeHumidity,
		WindSpeed,
		WindDirection,
	}
}

// SensorID uniquely identifies a physical sensor (a data source d).
type SensorID string

// SubscriptionID uniquely identifies a user subscription or a correlation
// operator derived from one.
type SubscriptionID string

// Timestamp is a logical time value (the unit is whatever the trace uses;
// the synthetic dataset uses seconds). Timestamps only ever participate in
// differences, so the origin is irrelevant.
type Timestamp int64

// Sensor describes a data source: a device of a fixed attribute type at a
// known location.
type Sensor struct {
	ID       SensorID
	Attr     AttributeType
	Location geom.Point2D
}

// Advertisement is the data-source advertisement DSA_d = (a_d, p_d) a sensor
// publishes to make its presence known. The sensor identity is carried along
// so that identified subscriptions can be routed.
type Advertisement struct {
	// Ref is the sensor's number in the registry of the network that
	// floods the advertisement (SensorRegistry.Advertisement sets it). A
	// link message carries only the ref, and the advertisement tables
	// store only refs.
	Ref      SensorRef
	Sensor   SensorID
	Attr     AttributeType
	Location geom.Point2D
}

// Advertisement returns the advertisement describing the sensor. Its Ref is
// 0: only a network's registry numbers sensors.
func (s Sensor) Advertisement() Advertisement {
	return Advertisement{Sensor: s.ID, Attr: s.Attr, Location: s.Location}
}

// String implements fmt.Stringer.
func (s Sensor) String() string {
	return fmt.Sprintf("sensor(%s %s @ %s)", s.ID, s.Attr, s.Location)
}

// String implements fmt.Stringer.
func (a Advertisement) String() string {
	return fmt.Sprintf("adv(%s %s @ %s)", a.Sensor, a.Attr, a.Location)
}
