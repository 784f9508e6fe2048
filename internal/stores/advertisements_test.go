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

// advSelf is the node whose table the reference test and the fuzzer drive,
// and advOrigins the origins it hears from, itself included.
const advSelf = topology.NodeID(7)

var advOrigins = []topology.NodeID{advSelf, 1, 2, 3, 12}

// advGhost names a sensor that no test in this package registers: the
// readers must answer "not known" for it however often they are asked.
const advGhost = model.SensorID("never-advertised")

// advPool registers n sensors in a fresh network registry, each with one
// attribute type drawn from attrs and one location from coord — a network
// advertises a sensor once, so every advertisement of it carries the same
// pair — and returns the registry and the sensors' IDs, in ref order.
func advPool(t testing.TB, rng *stats.RNG, prefix string, n int, attrs []model.AttributeType, coord func() geom.Point2D) (*model.SensorRegistry, []model.SensorID) {
	sensors := model.NewSensorRegistry()
	ids := make([]model.SensorID, n)
	for i := range ids {
		ids[i] = model.SensorID(fmt.Sprintf("%s%04d", prefix, i))
		s := model.Sensor{ID: ids[i], Attr: attrs[rng.Uint64()%uint64(len(attrs))], Location: coord()}
		if _, err := sensors.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return sensors, ids
}

// advSubscriptions draws the subscriptions the table is questioned with:
// identified ones naming two pooled sensors, every other one also advGhost,
// and abstract ones over advertised attributes — every fifth also over the
// silent one nobody advertises — in empty, whole-plane, degenerate and
// random regions.
func advSubscriptions(t testing.TB, rng *stats.RNG, sensors []model.SensorID, advertised []model.AttributeType, silent model.AttributeType) []*model.Subscription {
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	var subs []*model.Subscription
	for i := 0; i < 6; i++ {
		a := pick(len(sensors))
		ids := []model.SensorID{sensors[a], sensors[(a+1+pick(len(sensors)-1))%len(sensors)]}
		if i%2 == 1 {
			ids = append(ids, advGhost)
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
	return subs
}

// newRefAdvTable returns an empty reference table.
func newRefAdvTable() *refAdvTable {
	return &refAdvTable{byOrigin: map[topology.NodeID]map[model.SensorID]model.Advertisement{}}
}

// checkKnown compares Known for every probed sensor.
func checkKnown(t testing.TB, at string, tbl *AdvertisementTable, ref *refAdvTable, probes []model.SensorID) {
	t.Helper()
	for _, d := range probes {
		if got, want := tbl.Known(d), ref.known(d); got != want {
			t.Fatalf("%s: Known(%q) = %v, reference %v", at, d, got, want)
		}
	}
}

// checkProject compares Project of the subscription onto the origin.
func checkProject(t testing.TB, at string, tbl *AdvertisementTable, ref *refAdvTable, sub *model.Subscription, o topology.NodeID) {
	t.Helper()
	if got, want := projectionKeys(tbl.Project(sub, o)), ref.project(sub, o); !slices.Equal(got, want) {
		t.Fatalf("%s: Project(%s, %d) = %v, reference %v", at, sub.ID, o, got, want)
	}
}

// checkHasAllSources compares HasAllSources of the subscription.
func checkHasAllSources(t testing.TB, at string, tbl *AdvertisementTable, ref *refAdvTable, sub *model.Subscription) {
	t.Helper()
	if got, want := tbl.HasAllSources(sub), ref.hasAllSources(sub); got != want {
		t.Fatalf("%s: HasAllSources(%s) = %v, reference %v", at, sub.ID, got, want)
	}
}

// checkAdvTable compares every reader's answer: Known for every probe,
// Project onto every origin (and one never heard from) and HasAllSources.
func checkAdvTable(t testing.TB, at string, tbl *AdvertisementTable, ref *refAdvTable, probes []model.SensorID, subs []*model.Subscription, origins []topology.NodeID) {
	t.Helper()
	checkKnown(t, at, tbl, ref, probes)
	for _, sub := range subs {
		for _, o := range append(slices.Clone(origins), 99) {
			checkProject(t, at, tbl, ref, sub, o)
		}
		checkHasAllSources(t, at, tbl, ref, sub)
	}
}

// checkCount compares Count with the number of (origin, sensor) pairs.
func checkCount(t testing.TB, at string, tbl *AdvertisementTable, ref *refAdvTable) {
	t.Helper()
	stored := 0
	for _, m := range ref.byOrigin {
		stored += len(m)
	}
	if tbl.Count() != stored {
		t.Fatalf("%s: Count = %d, reference %d", at, tbl.Count(), stored)
	}
}

// TestAdvertisementTableMatchesReference drives the table and the reference
// with the same random Add sequences — duplicates from one origin, one
// sensor heard via several origins, local sensors under the node's own ID,
// repeated and collinear coordinates, and registered sensors this table
// never hears of — and compares every answer after every step: Add's
// verdict, Known, Project per origin (identified and abstract, over empty,
// whole-plane, degenerate and random regions, and over an attribute nobody
// advertises) and HasAllSources. Each pooled sensor has one attribute type
// and one location, as in a network. A last run floods 5000 sensors over
// three origins, so the origins' bitsets grow through several sizes; it
// compares every Add verdict and the readers at checkpoints.
func TestAdvertisementTableMatchesReference(t *testing.T) {
	attrs := model.DefaultAttributes()
	advertised, silent := attrs[:len(attrs)-1], attrs[len(attrs)-1]
	for seed := int64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		coord := func() float64 {
			if seed%3 == 0 {
				return 250 // every sensor on one spot
			}
			return float64(pick(40)) * 25 // repeats are common
		}
		registry, sensors := advPool(t, rng, "d", 40, advertised, func() geom.Point2D { return geom.Point2D{X: coord(), Y: coord()} })
		subs := advSubscriptions(t, rng, sensors, advertised, silent)
		probes := append(slices.Clone(sensors), advGhost, "")

		tbl, ref := NewAdvertisementTable(registry), newRefAdvTable()
		var last model.Advertisement
		for step := 0; step < 150; step++ {
			origin := advOrigins[pick(len(advOrigins))]
			adv := registry.Advertisement(model.SensorRef(pick(len(sensors))))
			if step%7 == 6 {
				adv = last // a straight repeat, same or another origin
			}
			last = adv
			if got, want := tbl.Add(origin, adv), ref.add(origin, adv); got != want {
				t.Fatalf("seed %d step %d: Add(%d, %v) = %v, reference %v", seed, step, origin, adv, got, want)
			}
			checkAdvTable(t, fmt.Sprintf("seed %d step %d", seed, step), tbl, ref, probes, subs, advOrigins)
		}
		checkCount(t, fmt.Sprintf("seed %d", seed), tbl, ref)
	}

	rng := stats.NewRNG(7)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	registry, sensors := advPool(t, rng, "w", 5000, advertised, func() geom.Point2D {
		return geom.Point2D{X: rng.Range(0, 1000), Y: rng.Range(0, 1000)}
	})
	subs := advSubscriptions(t, rng, sensors, advertised, silent)
	probes := append(slices.Clone(sensors), advGhost)
	origins := []topology.NodeID{advSelf, 1, 2}
	tbl, ref := NewAdvertisementTable(registry), newRefAdvTable()
	for step := 1; step <= 24000; step++ {
		origin := origins[pick(len(origins))]
		adv := registry.Advertisement(model.SensorRef(pick(len(sensors))))
		if got, want := tbl.Add(origin, adv), ref.add(origin, adv); got != want {
			t.Fatalf("wide step %d: Add(%d, %v) = %v, reference %v", step, origin, adv, got, want)
		}
		if step%3000 == 0 {
			at := fmt.Sprintf("wide step %d", step)
			checkAdvTable(t, at, tbl, ref, probes, subs, origins)
			checkCount(t, at, tbl, ref)
		}
	}
}

// TestAdvertisementTablesOfTwoNetworks gives two networks the same sensor
// IDs, at different attribute types and locations: each table answers from
// its own network's registry.
func TestAdvertisementTablesOfTwoNetworks(t *testing.T) {
	here, there := model.NewSensorRegistry(), model.NewSensorRegistry()
	register := func(r *model.SensorRegistry, s model.Sensor) model.Advertisement {
		ref, err := r.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Advertisement(ref)
	}
	// Registered in opposite orders, so the same ID has a different ref too.
	a1 := register(here, model.Sensor{ID: "a", Attr: model.WindSpeed, Location: geom.Point2D{X: 10, Y: 10}})
	b1 := register(here, model.Sensor{ID: "b", Attr: model.RelativeHumidity, Location: geom.Point2D{X: 20, Y: 20}})
	register(there, model.Sensor{ID: "b", Attr: model.WindSpeed, Location: geom.Point2D{X: 900, Y: 900}})
	a2 := register(there, model.Sensor{ID: "a", Attr: model.RelativeHumidity, Location: geom.Point2D{X: 910, Y: 910}})
	t1, t2 := NewAdvertisementTable(here), NewAdvertisementTable(there)
	t1.Add(1, a1)
	t1.Add(1, b1)
	t2.Add(1, a2) // "b" is registered there but not advertised to this node

	near := geom.NewRegion(0, 0, 100, 100)
	wind := absSub(t, "wind", near, model.WindSpeed)
	if p := t1.Project(wind, 1); p == nil || !t1.HasAllSources(wind) {
		t.Errorf("here: wind near the origin projects to %v", p)
	}
	if p := t2.Project(wind, 1); p != nil || t2.HasAllSources(wind) {
		t.Errorf("there: no wind sensor near the origin, but it projects to %v", p)
	}
	far := absSub(t, "far", geom.NewRegion(800, 800, 1000, 1000), model.RelativeHumidity)
	if p := t2.Project(far, 1); p == nil || !t2.HasAllSources(far) {
		t.Errorf("there: humidity far out projects to %v", p)
	}
	if p := t1.Project(far, 1); p != nil || t1.HasAllSources(far) {
		t.Errorf("here: no humidity far out, but it projects to %v", p)
	}
	both := idSub(t, "both", "a", "b")
	if p := t1.Project(both, 1); p == nil || !slices.Equal(p.Sensors(), []model.SensorID{"a", "b"}) || !t1.HasAllSources(both) {
		t.Errorf("here: a and b project to %v", p)
	}
	if p := t2.Project(both, 1); p == nil || !slices.Equal(p.Sensors(), []model.SensorID{"a"}) || t2.HasAllSources(both) {
		t.Errorf("there: only a is advertised, but a and b project to %v", p)
	}
	if !t1.Known("b") || t2.Known("b") {
		t.Errorf("Known(b) = %v here, %v there; want true, false", t1.Known("b"), t2.Known("b"))
	}
}

// FuzzAdvertisementTable runs random sequences of Add, Known, Project and
// HasAllSources against the reference, each drawn from its seed like the reference test's runs (whose seeds are the corpus): a
// pool of 2–401 sensors, each with one attribute type and one location, the
// subscriptions over it, and 400 operations.
func FuzzAdvertisementTable(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	attrs := model.DefaultAttributes()
	advertised, silent := attrs[:len(attrs)-1], attrs[len(attrs)-1]
	origins := append(slices.Clone(advOrigins), 99)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := stats.NewRNG(seed)
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		registry, sensors := advPool(t, rng, "d", 2+pick(400), advertised, func() geom.Point2D {
			return geom.Point2D{X: float64(pick(40)) * 25, Y: float64(pick(40)) * 25}
		})
		subs := advSubscriptions(t, rng, sensors, advertised, silent)
		probes := append(slices.Clone(sensors), advGhost, "")
		tbl, ref := NewAdvertisementTable(registry), newRefAdvTable()
		for op := 0; op < 400; op++ {
			at := fmt.Sprintf("seed %d op %d", seed, op)
			switch sub := subs[pick(len(subs))]; pick(4) {
			case 0:
				origin := advOrigins[pick(len(advOrigins))]
				adv := registry.Advertisement(model.SensorRef(pick(len(sensors))))
				if got, want := tbl.Add(origin, adv), ref.add(origin, adv); got != want {
					t.Fatalf("%s: Add(%d, %v) = %v, reference %v", at, origin, adv, got, want)
				}
			case 1:
				d := pick(len(probes))
				checkKnown(t, at, tbl, ref, probes[d:d+1])
			case 2:
				checkProject(t, at, tbl, ref, sub, origins[pick(len(origins))])
			case 3:
				checkHasAllSources(t, at, tbl, ref, sub)
			}
		}
		checkCount(t, fmt.Sprintf("seed %d", seed), tbl, ref)
	})
}
