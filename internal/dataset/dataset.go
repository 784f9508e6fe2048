// Package dataset generates the synthetic sensor trace that stands in for
// the SensorScope Grand St. Bernard deployment the paper replays (September/
// October 2007, Section VI-A). The original traces are not redistributable,
// so this generator produces measurements with the same structure: the five
// selected attribute types, one reading per sensor per round, a diurnal
// cycle plus auto-correlated noise per sensor, and realistic value ranges
// for a high-alpine site. The workload generator derives subscription ranges
// from the per-attribute medians and spreads of the generated trace, exactly
// as the paper derives them from the real one — which is what matters for
// the traffic metrics (relative selectivity and overlap, not absolute
// physical values).
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sensorcq/internal/model"
	"sensorcq/internal/stats"
	"sensorcq/internal/topology"
)

// AttributeProfile describes how one attribute type behaves over time.
type AttributeProfile struct {
	Attr model.AttributeType
	// Base is the mean level of the measurement.
	Base float64
	// DailyAmplitude is the amplitude of the diurnal cycle.
	DailyAmplitude float64
	// NoiseStdDev is the standard deviation of the per-reading noise.
	NoiseStdDev float64
	// SensorSpread is the standard deviation of the per-sensor offset
	// (different sensors of the same type sit at different micro-sites).
	SensorSpread float64
	// Min and Max clamp the generated values to a physical range.
	Min, Max float64
}

// DefaultProfiles returns profiles for the paper's five measurement types
// with values plausible for the Grand St. Bernard pass in early autumn.
func DefaultProfiles() []AttributeProfile {
	return []AttributeProfile{
		{Attr: model.AmbientTemperature, Base: 2, DailyAmplitude: 5, NoiseStdDev: 1.0, SensorSpread: 1.5, Min: -25, Max: 25},
		{Attr: model.SurfaceTemperature, Base: 4, DailyAmplitude: 8, NoiseStdDev: 1.5, SensorSpread: 2.0, Min: -25, Max: 40},
		{Attr: model.RelativeHumidity, Base: 70, DailyAmplitude: 15, NoiseStdDev: 5.0, SensorSpread: 5.0, Min: 5, Max: 100},
		{Attr: model.WindSpeed, Base: 6, DailyAmplitude: 3, NoiseStdDev: 2.0, SensorSpread: 1.5, Min: 0, Max: 45},
		{Attr: model.WindDirection, Base: 180, DailyAmplitude: 60, NoiseStdDev: 25.0, SensorSpread: 30.0, Min: 0, Max: 360},
	}
}

// Config parameterises trace generation.
type Config struct {
	// Profiles describes the attribute types; defaults to DefaultProfiles.
	Profiles []AttributeProfile
	// Rounds is the number of measurement rounds to generate.
	Rounds int
	// RoundInterval is the time between consecutive rounds (default 120,
	// i.e. the paper's two-minute SensorScope sampling period).
	RoundInterval model.Timestamp
	// StartTime is the timestamp of the first round.
	StartTime model.Timestamp
	// Seed makes the trace reproducible.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("dataset: Rounds must be positive, got %d", c.Rounds)
	}
	return nil
}

// Stats holds the per-attribute summary statistics of generated readings.
// The workload generator consumes these (and nothing else from a trace) to
// centre and size subscription ranges, so a streamed generation run that
// never materialises the trace can still drive workload generation.
type Stats struct {
	// Medians holds the per-attribute median of the generated values.
	Medians map[model.AttributeType]float64
	// Spreads holds the per-attribute standard deviation.
	Spreads map[model.AttributeType]float64
	// Mins and Maxs hold the observed per-attribute extremes.
	Mins, Maxs map[model.AttributeType]float64
}

// Trace is a generated measurement trace, ordered by time.
type Trace struct {
	// Events are all generated readings in timestamp order with globally
	// unique sequence numbers.
	Events []model.Event
	// ByRound groups the events by measurement round: row r is a view of
	// round r's stretch of Events, not a copy.
	ByRound [][]model.Event
	// RoundInterval echoes the configured sampling period.
	RoundInterval model.Timestamp
	// Stats summarises the generated values per attribute.
	Stats
}

// NumEvents returns the total number of readings in the trace.
func (t *Trace) NumEvents() int { return len(t.Events) }

// sensorState carries the per-sensor generator state (offset + AR(1) noise).
type sensorState struct {
	profile AttributeProfile
	offset  float64
	noise   float64
	phase   model.Timestamp
	rng     *stats.RNG
}

// Streamer generates a measurement trace one round at a time without ever
// materialising the whole trace. It produces bit-identical rounds to
// Generate with the same configuration: the same RNG splits, sequence
// numbers, phases and sample order.
//
// NextRound reuses an internal event buffer across calls — callers that
// retain a round beyond the next NextRound call must copy it. Summary
// statistics accumulate as rounds are generated; Stats reflects everything
// generated so far. The summaries keep every generated value for the exact
// median (stats.Summary), so a stream's memory still grows by 8 bytes per
// reading — far below a materialised trace, but not constant.
type Streamer struct {
	interval  model.Timestamp
	startTime model.Timestamp
	rounds    int
	sensors   []model.Sensor
	states    []*sensorState
	summaries map[model.AttributeType]*stats.Summary
	seq       uint64
	round     int
	buf       []model.Event
}

// NewStreamer prepares round-by-round generation over the deployment's
// sensors. The per-sensor generator state (offset, phase, RNG split) is fixed
// here, so the stream is fully determined by the configuration.
func NewStreamer(dep *topology.Deployment, cfg Config) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = DefaultProfiles()
	}
	interval := cfg.RoundInterval
	if interval <= 0 {
		interval = 120
	}
	byAttr := map[model.AttributeType]AttributeProfile{}
	for _, p := range profiles {
		byAttr[p.Attr] = p
	}

	master := stats.NewRNG(cfg.Seed)
	// Deterministic iteration: sensors sorted by ID.
	sensors := append([]model.Sensor(nil), dep.Sensors...)
	slices.SortFunc(sensors, func(a, b model.Sensor) int { return cmp.Compare(a.ID, b.ID) })
	states := make([]*sensorState, len(sensors))
	for i, s := range sensors {
		p, ok := byAttr[s.Attr]
		if !ok {
			return nil, fmt.Errorf("dataset: no profile for attribute %s", s.Attr)
		}
		rng := master.Split()
		states[i] = &sensorState{
			profile: p,
			offset:  rng.Normal(0, p.SensorSpread),
			phase:   model.Timestamp(rng.Intn(int(interval))),
			rng:     rng,
		}
	}
	return &Streamer{
		interval:  interval,
		startTime: cfg.StartTime,
		rounds:    cfg.Rounds,
		sensors:   sensors,
		states:    states,
		summaries: map[model.AttributeType]*stats.Summary{},
		buf:       make([]model.Event, 0, len(sensors)),
	}, nil
}

// RoundInterval returns the sampling period between consecutive rounds.
func (g *Streamer) RoundInterval() model.Timestamp { return g.interval }

// TotalRounds returns the configured number of rounds.
func (g *Streamer) TotalRounds() int { return g.rounds }

// RoundsGenerated returns how many rounds NextRound has produced so far.
func (g *Streamer) RoundsGenerated() int { return g.round }

// NextRound generates the next measurement round, sorted by timestamp, or
// returns nil once all configured rounds have been produced. The returned
// slice aliases an internal buffer that the next NextRound call overwrites;
// copy it to retain the round.
func (g *Streamer) NextRound() []model.Event {
	if g.round >= g.rounds {
		return nil
	}
	roundStart := g.startTime + model.Timestamp(g.round)*g.interval
	g.buf = g.buf[:0]
	for i, s := range g.sensors {
		st := g.states[i]
		g.seq++
		ts := roundStart + st.phase
		value := st.sample(ts)
		g.buf = append(g.buf, model.Event{
			Seq:      g.seq,
			Sensor:   s.ID,
			Attr:     s.Attr,
			Location: s.Location,
			Value:    value,
			Time:     ts,
		})
		sum := g.summaries[s.Attr]
		if sum == nil {
			sum = stats.NewSummary()
			g.summaries[s.Attr] = sum
		}
		sum.Add(value)
	}
	model.SortEventsByTime(g.buf)
	g.round++
	return g.buf
}

// Stats summarises the values generated so far. The returned maps are fresh
// copies; they do not change as more rounds are generated.
func (g *Streamer) Stats() Stats {
	st := Stats{
		Medians: map[model.AttributeType]float64{},
		Spreads: map[model.AttributeType]float64{},
		Mins:    map[model.AttributeType]float64{},
		Maxs:    map[model.AttributeType]float64{},
	}
	for attr, sum := range g.summaries {
		st.Medians[attr] = sum.Median()
		st.Spreads[attr] = sum.StdDev()
		st.Mins[attr] = sum.Min()
		st.Maxs[attr] = sum.Max()
	}
	return st
}

// Generate builds a trace for every sensor of the deployment. It is the
// materialised form of the stream NewStreamer produces: every round is copied
// out of the streamer's reusable buffer into Events, which is sized for the
// whole trace up front, and ByRound[r] is a view of round r's stretch of it
// whose capacity ends where the round does, so appending to a row copies it
// instead of overwriting the next round.
func Generate(dep *topology.Deployment, cfg Config) (*Trace, error) {
	g, err := NewStreamer(dep, cfg)
	if err != nil {
		return nil, err
	}
	trace := &Trace{
		Events:        make([]model.Event, 0, g.TotalRounds()*len(dep.Sensors)),
		ByRound:       make([][]model.Event, 0, g.TotalRounds()),
		RoundInterval: g.RoundInterval(),
	}
	for round := g.NextRound(); round != nil; round = g.NextRound() {
		a := len(trace.Events)
		trace.Events = append(trace.Events, round...)
		b := len(trace.Events)
		trace.ByRound = append(trace.ByRound, trace.Events[a:b:b])
	}
	trace.Stats = g.Stats()
	return trace, nil
}

// sample produces one reading at the given timestamp: base level + sensor
// offset + diurnal cycle + AR(1) noise, clamped to the physical range.
func (st *sensorState) sample(ts model.Timestamp) float64 {
	p := st.profile
	dayFraction := float64(ts%86400) / 86400
	diurnal := p.DailyAmplitude * math.Sin(2*math.Pi*(dayFraction-0.25))
	// AR(1) noise with coefficient 0.7 keeps consecutive readings of one
	// sensor correlated, as real environmental series are.
	st.noise = 0.7*st.noise + st.rng.Normal(0, p.NoiseStdDev)
	v := p.Base + st.offset + diurnal + st.noise
	if v < p.Min {
		v = p.Min
	}
	if v > p.Max {
		v = p.Max
	}
	return v
}
