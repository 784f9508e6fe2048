package stores

import (
	"slices"
	"testing"
	"testing/quick"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

func adv(sensor model.SensorID, attr model.AttributeType, x, y float64) model.Advertisement {
	return model.Advertisement{Sensor: sensor, Attr: attr, Location: geom.Point2D{X: x, Y: y}}
}

func absSub(t *testing.T, id string, region geom.Region, attrs ...model.AttributeType) *model.Subscription {
	t.Helper()
	var filters []model.AttributeFilter
	for _, a := range attrs {
		filters = append(filters, model.AttributeFilter{Attr: a, Range: geom.NewInterval(0, 100)})
	}
	s, err := model.NewAbstractSubscription(model.SubscriptionID(id), filters, region, 30, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func idSub(t *testing.T, id string, sensors ...model.SensorID) *model.Subscription {
	t.Helper()
	var filters []model.SensorFilter
	for _, d := range sensors {
		filters = append(filters, model.SensorFilter{Sensor: d, Attr: model.WindSpeed, Range: geom.NewInterval(0, 100)})
	}
	s, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, 30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdvertisementTableBasics(t *testing.T) {
	tbl := NewAdvertisementTable(5)
	if !tbl.Add(1, adv("d1", model.WindSpeed, 0, 0)) {
		t.Fatal("first add should succeed")
	}
	if tbl.Add(1, adv("d1", model.WindSpeed, 0, 0)) {
		t.Fatal("duplicate add from the same origin should be rejected")
	}
	if !tbl.Add(2, adv("d2", model.AmbientTemperature, 10, 10)) {
		t.Fatal("add from another origin should succeed")
	}
	if !tbl.Add(5, adv("d3", model.WindSpeed, 20, 20)) {
		t.Fatal("local add should succeed")
	}
	if !tbl.Known("d1") || !tbl.Known("d3") || tbl.Known("zz") {
		t.Error("Known wrong")
	}
	if tbl.Count() != 3 {
		t.Errorf("Count = %d", tbl.Count())
	}
	// Who advertised what is read through the projections: the table keeps
	// no advertisement list to return. The node's own ID is not a neighbour
	// to forward to.
	all := idSub(t, "all", "d1", "d2", "d3")
	if got := tbl.OriginsMatching(all, -1); !slices.Equal(got, []topology.NodeID{1, 2}) {
		t.Errorf("OriginsMatching = %v, want [1 2]", got)
	}
	if p := tbl.Project(all, 1); p == nil || !slices.Equal(p.Sensors(), []model.SensorID{"d1"}) {
		t.Errorf("Project onto origin 1 = %v, want d1 alone", p)
	}
	if tbl.Project(all, 9) != nil {
		t.Error("unknown origin should have no advertisements")
	}
}

func TestAdvertisementTableProjectIdentified(t *testing.T) {
	tbl := NewAdvertisementTable(0)
	tbl.Add(1, adv("a", model.AmbientTemperature, 0, 0))
	tbl.Add(1, adv("b", model.RelativeHumidity, 0, 0))
	tbl.Add(2, adv("c", model.WindSpeed, 0, 0))

	sub := idSub(t, "s", "a", "b", "c")
	p1 := tbl.Project(sub, 1)
	if p1 == nil || p1.NumFilters() != 2 {
		t.Fatalf("projection onto origin 1 = %v", p1)
	}
	p2 := tbl.Project(sub, 2)
	if p2 == nil || p2.NumFilters() != 1 || !p2.IsSimple() {
		t.Fatalf("projection onto origin 2 = %v", p2)
	}
	if tbl.Project(sub, 9) != nil {
		t.Error("projection onto unknown origin should be nil")
	}
	subUnknown := idSub(t, "s2", "z")
	if tbl.Project(subUnknown, 1) != nil {
		t.Error("projection with no overlap should be nil")
	}
}

func TestAdvertisementTableProjectAbstractRespectsRegion(t *testing.T) {
	tbl := NewAdvertisementTable(0)
	tbl.Add(1, adv("near", model.WindSpeed, 10, 10))
	tbl.Add(2, adv("far", model.WindSpeed, 900, 900))
	tbl.Add(2, adv("hum", model.RelativeHumidity, 20, 20))

	region := geom.NewRegion(0, 0, 100, 100)
	sub := absSub(t, "s", region, model.WindSpeed, model.RelativeHumidity)

	p1 := tbl.Project(sub, 1)
	if p1 == nil || p1.NumFilters() != 1 {
		t.Fatalf("projection onto origin 1 = %v", p1)
	}
	// Origin 2's wind sensor is outside the region, so only humidity projects.
	p2 := tbl.Project(sub, 2)
	if p2 == nil || p2.NumFilters() != 1 || p2.Attributes()[0] != model.RelativeHumidity {
		t.Fatalf("projection onto origin 2 = %v", p2)
	}
}

func TestAdvertisementTableHasAllSources(t *testing.T) {
	tbl := NewAdvertisementTable(0)
	tbl.Add(1, adv("a", model.WindSpeed, 10, 10))
	tbl.Add(2, adv("b", model.RelativeHumidity, 20, 20))

	region := geom.NewRegion(0, 0, 100, 100)
	if !tbl.HasAllSources(absSub(t, "s1", region, model.WindSpeed, model.RelativeHumidity)) {
		t.Error("both attributes are advertised inside the region")
	}
	if tbl.HasAllSources(absSub(t, "s2", region, model.WindSpeed, model.AmbientTemperature)) {
		t.Error("ambient temperature has no source")
	}
	farRegion := geom.NewRegion(500, 500, 600, 600)
	if tbl.HasAllSources(absSub(t, "s3", farRegion, model.WindSpeed)) {
		t.Error("no wind sensor inside the far region")
	}
	if !tbl.HasAllSources(idSub(t, "s4", "a", "b")) {
		t.Error("both sensors are advertised")
	}
	if tbl.HasAllSources(idSub(t, "s5", "a", "zz")) {
		t.Error("sensor zz is not advertised")
	}
}

func TestAdvertisementTableOriginsMatching(t *testing.T) {
	tbl := NewAdvertisementTable(9)
	tbl.Add(1, adv("a", model.WindSpeed, 10, 10))
	tbl.Add(2, adv("b", model.RelativeHumidity, 20, 20))
	tbl.Add(3, adv("c", model.AmbientTemperature, 30, 30))
	tbl.Add(9, adv("local", model.WindDirection, 40, 40)) // local sensors never count

	sub := absSub(t, "s", geom.NewRegion(0, 0, 100, 100), model.WindSpeed, model.RelativeHumidity)
	got := tbl.OriginsMatching(sub, 2) // exclude origin 2
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("OriginsMatching = %v, want [1]", got)
	}
	got = tbl.OriginsMatching(sub, -1)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("OriginsMatching = %v, want [1 2]", got)
	}
}

func TestSubscriptionTable(t *testing.T) {
	tbl := NewSubscriptionTable()
	s1 := absSub(t, "s1", geom.WholePlane(), model.WindSpeed)
	s2 := absSub(t, "s2", geom.WholePlane(), model.WindSpeed, model.RelativeHumidity)
	s3 := absSub(t, "s3", geom.WholePlane(), model.AmbientTemperature)

	if !tbl.AddUncovered(1, s1) || !tbl.AddUncovered(1, s2) {
		t.Fatal("adds should succeed")
	}
	if tbl.AddUncovered(1, s1) {
		t.Fatal("duplicate ID from same origin should be rejected")
	}
	if !tbl.AddCovered(1, s3) {
		t.Fatal("covered add should succeed")
	}
	if tbl.AddCovered(1, s3) {
		t.Fatal("covered duplicate should be rejected")
	}
	if !tbl.Seen(1, "s1") || tbl.Seen(2, "s1") {
		t.Error("Seen wrong")
	}
	if len(tbl.Uncovered(1)) != 2 || len(tbl.Covered(1)) != 1 || len(tbl.All(1)) != 3 {
		t.Error("retrieval wrong")
	}
	if tbl.CountUncovered() != 2 || tbl.CountCovered() != 1 {
		t.Error("counts wrong")
	}
	matchIDs := func(attr model.AttributeType) []string {
		return uncoveredCandidateIDs(tbl, 1, model.Event{Seq: 1, Sensor: "dx", Attr: attr, Value: 50})
	}
	if got := matchIDs(model.WindSpeed); len(got) != 2 {
		t.Errorf("candidates(wind) = %d entries, want 2", len(got))
	}
	if got := matchIDs(model.RelativeHumidity); len(got) != 1 || got[0] != "s2" {
		t.Errorf("candidates(humidity) wrong: %v", got)
	}
	if got := matchIDs(model.AmbientTemperature); len(got) != 0 {
		t.Error("covered subscriptions must not be indexed for matching")
	}
	origins := tbl.Origins()
	if len(origins) != 1 || origins[0] != 1 {
		t.Errorf("Origins = %v", origins)
	}
}

func TestEventWindowInsertOrderAndDedup(t *testing.T) {
	w := NewEventWindow(10)
	events := []model.Event{
		{Seq: 3, Time: 30},
		{Seq: 1, Time: 10},
		{Seq: 2, Time: 20},
		{Seq: 4, Time: 20},
	}
	for _, e := range events {
		if !w.Insert(e) {
			t.Fatalf("insert of %d failed", e.Seq)
		}
	}
	if w.Insert(model.Event{Seq: 3, Time: 30}) {
		t.Error("duplicate seq should be rejected")
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
	got := w.Events()
	wantOrder := []uint64{1, 2, 4, 3}
	for i, e := range got {
		if e.Seq != wantOrder[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if w.Latest() != 30 {
		t.Errorf("Latest = %d", w.Latest())
	}
}

func TestEventWindowAroundAndPrune(t *testing.T) {
	w := NewEventWindow(15)
	for i := 1; i <= 6; i++ {
		w.Insert(model.Event{Seq: uint64(i), Time: model.Timestamp(i * 10)})
	}
	around := w.Around(30, 10)
	if len(around) != 3 {
		t.Fatalf("Around(30,10) returned %d events", len(around))
	}
	for _, e := range around {
		if e.Time < 20 || e.Time > 40 {
			t.Errorf("event at %d outside window", e.Time)
		}
	}
	w.Prune(60) // cutoff = 45: drops events at 10,20,30,40
	if w.Len() != 2 {
		t.Fatalf("after prune Len = %d", w.Len())
	}
	if w.Insert(model.Event{Seq: 2, Time: 20}) == false {
		// Seq 2 was pruned, re-insert is allowed again.
		t.Error("pruned events should be insertable again")
	}
}

// TestEventWindowValidityRule pins the rule both protocol handlers apply:
// validity grows to factor × the largest δt seen (a factor <= 0 counting as
// 2) and never shrinks, and an arrival prunes to the newest timestamp seen,
// not to its own.
func TestEventWindowValidityRule(t *testing.T) {
	for _, factor := range []model.Timestamp{0, -1} {
		w := NewEventWindow(1)
		w.ObserveDeltaT(10, factor)
		if w.Validity != 20 {
			t.Errorf("validity %d after δt 10 at factor %d; want the default factor's 20", w.Validity, factor)
		}
	}
	w := NewEventWindow(1)
	w.ObserveDeltaT(10, 3)
	w.ObserveDeltaT(4, 3)
	if w.Validity != 30 || w.MaxDeltaT() != 10 {
		t.Fatalf("validity %d, max δt %d after δt 10 then 4 at factor 3; want 30, 10", w.Validity, w.MaxDeltaT())
	}
	for i, ts := range []model.Timestamp{10, 50, 20, 45} {
		if !w.Receive(model.Event{Seq: uint64(i + 1), Time: ts}) {
			t.Fatalf("arrival at %d rejected", ts)
		}
	}
	// Newest is 50, cutoff 20: the event at 10 is gone, the late one at 20
	// stays, and so does every later one.
	var got []model.Timestamp
	for _, e := range w.Events() {
		got = append(got, e.Time)
	}
	if !slices.Equal(got, []model.Timestamp{20, 45, 50}) {
		t.Errorf("stored %v, want [20 45 50]", got)
	}
	if w.Receive(model.Event{Seq: 2, Time: 50}) || w.Len() != 3 {
		t.Error("a duplicate arrival must leave the window unchanged")
	}
}

func TestEventWindowSentFlags(t *testing.T) {
	w := NewEventWindow(100)
	stored := model.Event{Seq: 1, Time: 10}
	w.Insert(stored)
	k2, k3 := w.KeyID("n:2"), w.KeyID("n:3")
	if w.KeyID("n:2") != k2 {
		t.Error("KeyID must be stable for the same key")
	}
	if !w.MarkSent(stored, k2) {
		t.Error("the first mark of a fresh event should be new")
	}
	if w.MarkSent(stored, k2) {
		t.Error("a repeated mark should not be new")
	}
	keys := w.SentKeys(stored)
	if len(keys) != 1 || keys[0] != "n:2" {
		t.Errorf("SentKeys = %v", keys)
	}
	if !w.MarkSent(stored, k3) {
		t.Error("marks under different keys are independent")
	}
	// Unknown/expired events are treated as already sent.
	unknown := model.Event{Seq: 99, Time: 10}
	if w.MarkSent(unknown, k2) {
		t.Error("unknown events should report already sent")
	}
	if w.SentKeys(unknown) != nil {
		t.Error("unknown events have no keys")
	}
	if NewEventWindow(0).Validity != 1 {
		t.Error("non-positive validity should be clamped to 1")
	}
}

// TestEventWindowMarkSent pins the single mark call the forwarding path uses:
// a mark is new exactly once per (stored event, key), an expired event reads
// as already sent and is left alone, the per-event key lists stay sorted
// whatever order the keys arrive in, and pruned events hand their lists —
// emptied — to later inserts.
func TestEventWindowMarkSent(t *testing.T) {
	w := NewEventWindow(20)
	old, kept := model.Event{Seq: 1, Time: 10}, model.Event{Seq: 2, Time: 40}
	w.Insert(old)
	w.Insert(kept)
	keys := []uint32{w.KeyID("n:5"), w.KeyID("n:1"), w.KeyID("n:9"), w.KeyID("n:3")}
	for _, k := range []int{2, 0, 3, 1} {
		if !w.MarkSent(old, keys[k]) {
			t.Fatalf("first mark under key %d not reported new", keys[k])
		}
		if w.MarkSent(old, keys[k]) {
			t.Fatalf("repeated mark under key %d reported new", keys[k])
		}
	}
	if !w.MarkSent(kept, keys[0]) {
		t.Error("marks of different events are independent")
	}
	if list := w.sent[0]; len(list) != len(keys) || !slices.IsSorted(list) {
		t.Errorf("sent list = %v, want the %d keys sorted", list, len(keys))
	}

	w.Prune(45) // cutoff 25: drops the event at 10
	if w.MarkSent(old, keys[1]) {
		t.Error("an expired event must read as already sent")
	}
	if w.Len() != 1 || len(w.free) != 1 {
		t.Fatalf("after the prune: %d events, %d recycled lists; want 1 and 1", w.Len(), len(w.free))
	}
	recycled := &w.free[0][:1][0]
	fresh := model.Event{Seq: 3, Time: 50}
	w.Insert(fresh)
	if len(w.free) != 0 {
		t.Error("the insert should have taken the recycled list")
	}
	for _, k := range keys {
		if !w.MarkSent(fresh, k) {
			t.Fatalf("key %d already marked on a fresh event: the recycled list was not emptied", k)
		}
	}
	idx, _ := w.find(fresh.Time, fresh.Seq)
	if &w.sent[idx][0] != recycled {
		t.Error("the fresh event's marks should live in the recycled list's storage")
	}
	if got := w.SentKeys(kept); len(got) != 1 || got[0] != "n:5" {
		t.Errorf("marks of the surviving event = %v, want [n:5]", got)
	}
}

// Property: the window always returns events in non-decreasing timestamp
// order and never returns more events than were inserted.
func TestPropertyEventWindowOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		w := NewEventWindow(1 << 30)
		for i, tm := range times {
			w.Insert(model.Event{Seq: uint64(i + 1), Time: model.Timestamp(tm)})
		}
		events := w.Events()
		if len(events) != len(times) {
			return false
		}
		for i := 1; i < len(events); i++ {
			if events[i].Time < events[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
