package stores

import (
	"fmt"
	"slices"
	"testing"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
	"sensorcq/internal/topology"
)

// refAdvTable is the reference the compact AdvertisementTable is checked
// against: every advertisement kept whole, per origin and sensor, and every
// question answered by scanning them.
type refAdvTable struct {
	self     topology.NodeID
	byOrigin map[topology.NodeID]map[model.SensorID]model.Advertisement
}

func (r *refAdvTable) add(origin topology.NodeID, adv model.Advertisement) bool {
	m := r.byOrigin[origin]
	if m == nil {
		m = map[model.SensorID]model.Advertisement{}
		r.byOrigin[origin] = m
	}
	if _, dup := m[adv.Sensor]; dup {
		return false
	}
	m[adv.Sensor] = adv
	return true
}

func (r *refAdvTable) known(sensor model.SensorID) bool {
	for _, m := range r.byOrigin {
		if _, ok := m[sensor]; ok {
			return true
		}
	}
	return false
}

// advertises reports whether the origin (any origin when all is set)
// advertised a sensor of the attribute type inside the region.
func (r *refAdvTable) advertises(origin topology.NodeID, all bool, attr model.AttributeType, region geom.Region) bool {
	for o, m := range r.byOrigin {
		if !all && o != origin {
			continue
		}
		for _, adv := range m {
			if adv.Attr == attr && region.Contains(adv.Location) {
				return true
			}
		}
	}
	return false
}

// project returns the filter keys (sensor IDs or attribute types, sorted) of
// sub's projection onto the origin; empty means no projection.
func (r *refAdvTable) project(sub *model.Subscription, origin topology.NodeID) []string {
	var keys []string
	if sub.Kind == model.KindIdentified {
		for d := range sub.SensorFilters {
			if _, ok := r.byOrigin[origin][d]; ok {
				keys = append(keys, string(d))
			}
		}
	} else {
		for a := range sub.AttrFilters {
			if r.advertises(origin, false, a, sub.Region) {
				keys = append(keys, string(a))
			}
		}
	}
	slices.Sort(keys)
	return keys
}

func (r *refAdvTable) hasAllSources(sub *model.Subscription) bool {
	if sub.Kind == model.KindIdentified {
		for d := range sub.SensorFilters {
			if !r.known(d) {
				return false
			}
		}
		return true
	}
	for a := range sub.AttrFilters {
		if !r.advertises(0, true, a, sub.Region) {
			return false
		}
	}
	return true
}

func (r *refAdvTable) originsMatching(sub *model.Subscription, exclude topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	for o := range r.byOrigin {
		if o != exclude && o != r.self && len(r.project(sub, o)) > 0 {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// projectionKeys flattens a projected operator into its sorted filter keys.
func projectionKeys(p *model.Subscription) []string {
	var keys []string
	if p == nil {
		return keys
	}
	for _, d := range p.Sensors() {
		keys = append(keys, string(d))
	}
	if p.Kind == model.KindAbstract {
		for _, a := range p.Attributes() {
			keys = append(keys, string(a))
		}
	}
	return keys
}

// TestAdvertisementTableMatchesReference drives the table and the reference
// with the same random Add sequences — duplicates from one origin, one
// sensor heard via two origins (with differing attribute and location), local
// sensors under the node's own ID, repeated and collinear coordinates — and
// compares every answer after every step: Add's verdict, Known, Project per
// origin (identified and abstract, over empty, whole-plane, degenerate and
// random regions, and over an attribute nobody advertises), HasAllSources
// and OriginsMatching.
func TestAdvertisementTableMatchesReference(t *testing.T) {
	const self = topology.NodeID(7)
	origins := []topology.NodeID{self, 1, 2, 3, 12}
	attrs := model.DefaultAttributes()
	advertised, silent := attrs[:len(attrs)-1], attrs[len(attrs)-1]
	for seed := int64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		coord := func() float64 {
			if seed%3 == 0 {
				return 250 // every sensor on one spot: a grid without extent
			}
			return float64(pick(40)) * 25 // repeats are common
		}
		sensors := make([]model.SensorID, 40)
		for i := range sensors {
			sensors[i] = model.SensorID(fmt.Sprintf("d%02d", i))
		}
		randomAdv := func() model.Advertisement {
			return model.Advertisement{
				Sensor:   sensors[pick(len(sensors))],
				Attr:     advertised[pick(len(advertised))],
				Location: geom.Point2D{X: coord(), Y: coord()},
			}
		}

		var subs []*model.Subscription
		for i := 0; i < 6; i++ {
			// Two distinct sensors of the pool, and every other time one
			// that is never advertised.
			a := pick(40)
			ids := []model.SensorID{sensors[a], sensors[(a+1+pick(39))%40]}
			if i%2 == 1 {
				ids = append(ids, "d40")
			}
			var filters []model.SensorFilter
			for _, d := range ids {
				filters = append(filters, model.SensorFilter{Sensor: d, Attr: model.WindSpeed, Range: geom.NewInterval(0, 100)})
			}
			s, err := model.NewIdentifiedSubscription(model.SubscriptionID(fmt.Sprintf("id%d", i)), filters, 30)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}
		regions := []geom.Region{
			geom.WholePlane(),
			{X: geom.Interval{Min: 1, Max: 0}, Y: geom.Interval{Min: 0, Max: 1}}, // empty
			geom.RegionAround(geom.Point2D{X: 250, Y: 250}, 0),                   // one point
			geom.NewRegion(0, 0, 1000, 0),                                        // one line
		}
		for i := 0; i < 8; i++ {
			x, y := rng.Range(-100, 900), rng.Range(-100, 900)
			regions = append(regions, geom.NewRegion(x, y, x+rng.Range(0, 500), y+rng.Range(0, 500)))
		}
		for i, region := range regions {
			filters := []model.AttributeFilter{{Attr: advertised[i%len(advertised)], Range: geom.NewInterval(0, 100)}}
			if i%2 == 0 {
				filters = append(filters, model.AttributeFilter{Attr: advertised[(i+1)%len(advertised)], Range: geom.NewInterval(0, 100)})
			}
			if i%5 == 4 {
				filters = append(filters, model.AttributeFilter{Attr: silent, Range: geom.NewInterval(0, 100)})
			}
			// The constructor refuses an empty region but still returns the
			// subscription; the table must answer for it all the same.
			s, err := model.NewAbstractSubscription(model.SubscriptionID(fmt.Sprintf("abs%d", i)), filters, region, 30, model.NoSpatialConstraint)
			if err != nil && !region.Empty() {
				t.Fatal(err)
			}
			subs = append(subs, s)
		}

		tbl := NewAdvertisementTable(self)
		ref := &refAdvTable{self: self, byOrigin: map[topology.NodeID]map[model.SensorID]model.Advertisement{}}
		var last model.Advertisement
		for step := 0; step < 150; step++ {
			origin, adv := origins[pick(len(origins))], randomAdv()
			if step%7 == 6 {
				adv = last // a straight repeat, same or another origin
			}
			last = adv
			if got, want := tbl.Add(origin, adv), ref.add(origin, adv); got != want {
				t.Fatalf("seed %d step %d: Add(%d, %v) = %v, reference %v", seed, step, origin, adv, got, want)
			}
			for _, d := range append(sensors, "d40", "") {
				if got, want := tbl.Known(d), ref.known(d); got != want {
					t.Fatalf("seed %d step %d: Known(%q) = %v, reference %v", seed, step, d, got, want)
				}
			}
			for _, sub := range subs {
				for _, o := range append(origins, 99) {
					if got, want := projectionKeys(tbl.Project(sub, o)), ref.project(sub, o); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Project(%s, %d) = %v, reference %v", seed, step, sub.ID, o, got, want)
					}
				}
				if got, want := tbl.HasAllSources(sub), ref.hasAllSources(sub); got != want {
					t.Fatalf("seed %d step %d: HasAllSources(%s) = %v, reference %v", seed, step, sub.ID, got, want)
				}
				for _, exclude := range []topology.NodeID{-1, 1, self} {
					if got, want := tbl.OriginsMatching(sub, exclude), ref.originsMatching(sub, exclude); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: OriginsMatching(%s, %d) = %v, reference %v", seed, step, sub.ID, exclude, got, want)
					}
				}
			}
		}
		stored := 0
		for _, m := range ref.byOrigin {
			stored += len(m)
		}
		if tbl.Count() != stored {
			t.Errorf("seed %d: Count = %d, reference %d", seed, tbl.Count(), stored)
		}
	}
}
