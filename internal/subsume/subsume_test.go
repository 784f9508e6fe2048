package subsume

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sensorcq/internal/geom"
	"sensorcq/internal/model"
	"sensorcq/internal/stats"
)

func abs2(t *testing.T, id string, dt model.Timestamp, ranges map[model.AttributeType][2]float64) *model.Subscription {
	t.Helper()
	var filters []model.AttributeFilter
	for a, r := range ranges {
		filters = append(filters, model.AttributeFilter{Attr: a, Range: geom.NewInterval(r[0], r[1])})
	}
	s, err := model.NewAbstractSubscription(model.SubscriptionID(id), filters, geom.WholePlane(), dt, model.NoSpatialConstraint)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPairwiseCovered(t *testing.T) {
	wide := abs2(t, "wide", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {0, 100}})
	narrow := abs2(t, "narrow", 30, map[model.AttributeType][2]float64{"a": {10, 20}, "b": {10, 20}})
	other := abs2(t, "other", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "c": {0, 100}})

	if !PairwiseCovered(narrow, []*model.Subscription{other, wide}) {
		t.Error("narrow should be pairwise covered by wide")
	}
	if PairwiseCovered(wide, []*model.Subscription{narrow, other}) {
		t.Error("wide should not be pairwise covered")
	}
	if PairwiseCovered(narrow, nil) {
		t.Error("empty set covers nothing")
	}
	var pc PairwiseChecker
	if !pc.Subsumed(narrow, []*model.Subscription{wide}) || pc.Name() != "pairwise" {
		t.Error("PairwiseChecker adapter wrong")
	}
	var nc NoneChecker
	if nc.Subsumed(narrow, []*model.Subscription{wide}) || nc.Name() != "none" {
		t.Error("NoneChecker should never subsume")
	}
}

// Table I of the paper: s3 is subsumed by {s1, s2} only after splitting into
// the per-path operators; as whole subscriptions over different sensor sets
// neither pairwise nor set filtering may detect subsumption.
func tableISubs(t *testing.T) (s1, s2, s3 *model.Subscription) {
	t.Helper()
	mk := func(id string, ranges map[model.SensorID][2]float64) *model.Subscription {
		var filters []model.SensorFilter
		for d, r := range ranges {
			filters = append(filters, model.SensorFilter{Sensor: d, Attr: model.AttributeType("attr_" + d), Range: geom.NewInterval(r[0], r[1])})
		}
		s, err := model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, 30)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 = mk("s1", map[model.SensorID][2]float64{"a": {50, 80}, "b": {10, 30}})
	s2 = mk("s2", map[model.SensorID][2]float64{"b": {20, 40}, "c": {2, 20}})
	s3 = mk("s3", map[model.SensorID][2]float64{"a": {55, 75}, "b": {15, 35}, "c": {5, 15}})
	return
}

func TestTableIWholeSubscriptionsNotComparable(t *testing.T) {
	s1, s2, s3 := tableISubs(t)
	set := []*model.Subscription{s1, s2}
	if PairwiseCovered(s3, set) {
		t.Error("s3 must not be pairwise covered by s1/s2 (different sensor sets)")
	}
	checker := NewSetChecker(0.01, 1)
	if checker.Subsumed(s3, set) {
		t.Error("set filtering over different sensor sets must not subsume s3 directly")
	}
}

func TestTableISplitOperatorsAreCovered(t *testing.T) {
	s1, s2, s3 := tableISubs(t)
	// After the split phase, s3's simple operators are compared against the
	// simple operators split from s1 and s2 over the same sensors:
	//   a: [55,75] ⊂ [50,80]            (covered by s1's a operator alone)
	//   c: [5,15]  ⊂ [2,20]             (covered by s2's c operator alone)
	//   b: [15,35] ⊂ [10,30] ∪ [20,40]  (covered only by the UNION — this is
	//                                    where set filtering beats pairwise)
	op3a := s3.ProjectSensors([]model.SensorID{"a"})
	op3b := s3.ProjectSensors([]model.SensorID{"b"})
	op3c := s3.ProjectSensors([]model.SensorID{"c"})
	op1a := s1.ProjectSensors([]model.SensorID{"a"})
	op1b := s1.ProjectSensors([]model.SensorID{"b"})
	op2b := s2.ProjectSensors([]model.SensorID{"b"})
	op2c := s2.ProjectSensors([]model.SensorID{"c"})

	if !op3a.CoveredBy(op1a) {
		t.Error("s3's a operator should be covered by s1's a operator")
	}
	if !op3c.CoveredBy(op2c) {
		t.Error("s3's c operator should be covered by s2's c operator")
	}
	if op3b.CoveredBy(op1b) || op3b.CoveredBy(op2b) {
		t.Error("s3's b operator must not be covered by a single operator")
	}
	checker := NewSetChecker(0.01, 1)
	if !checker.Subsumed(op3a, []*model.Subscription{op1a}) {
		t.Error("set checker should accept single-cover case for (a)")
	}
	if !checker.Subsumed(op3c, []*model.Subscription{op2c}) {
		t.Error("set checker should accept single-cover case for (c)")
	}
	if !checker.Subsumed(op3b, []*model.Subscription{op1b, op2b}) {
		t.Error("set checker should detect the union coverage of the b operator")
	}
	if PairwiseCovered(op3b, []*model.Subscription{op1b, op2b}) {
		t.Error("pairwise filtering must not detect the union coverage of the b operator")
	}
	if !(ExactChecker{}).Subsumed(op3b, []*model.Subscription{op1b, op2b}) {
		t.Error("exact checker should detect the union coverage of the b operator")
	}
}

func TestSetCheckerUnionCoverage(t *testing.T) {
	// Two subscriptions that only jointly cover the candidate: pairwise
	// filtering fails, set filtering succeeds.
	left := abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 60}, "b": {0, 100}})
	right := abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {40, 100}, "b": {0, 100}})
	mid := abs2(t, "mid", 30, map[model.AttributeType][2]float64{"a": {20, 80}, "b": {10, 90}})

	set := []*model.Subscription{left, right}
	if PairwiseCovered(mid, set) {
		t.Fatal("mid must not be covered by a single subscription")
	}
	checker := NewSetChecker(0.01, 42)
	if !checker.Subsumed(mid, set) {
		t.Error("set checker should detect union coverage")
	}
	exact := ExactChecker{}
	if !exact.Subsumed(mid, set) {
		t.Error("exact checker should detect union coverage")
	}
}

func TestSetCheckerDetectsGap(t *testing.T) {
	// The union leaves a hole in the middle of the candidate.
	left := abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 40}, "b": {0, 100}})
	right := abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {60, 100}, "b": {0, 100}})
	mid := abs2(t, "mid", 30, map[model.AttributeType][2]float64{"a": {20, 80}, "b": {10, 90}})

	set := []*model.Subscription{left, right}
	checker := NewSetChecker(0.01, 42)
	if checker.Subsumed(mid, set) {
		t.Error("set checker must detect the uncovered gap")
	}
	exact := ExactChecker{}
	if exact.Subsumed(mid, set) {
		t.Error("exact checker must detect the uncovered gap")
	}
}

func TestSetCheckerInteriorGap(t *testing.T) {
	// Gap strictly in the interior (all corners covered) — only sampling or
	// exact subtraction can find it. Build a frame of four subscriptions
	// around an uncovered centre square.
	frame := []*model.Subscription{
		abs2(t, "bottom", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {0, 30}}),
		abs2(t, "top", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {70, 100}}),
		abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 30}, "b": {0, 100}}),
		abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {70, 100}, "b": {0, 100}}),
	}
	candidate := abs2(t, "cand", 30, map[model.AttributeType][2]float64{"a": {10, 90}, "b": {10, 90}})

	exact := ExactChecker{}
	if exact.Subsumed(candidate, frame) {
		t.Fatal("exact checker must find the interior gap")
	}
	// The gap is (0.6)^2/(0.8)^2 = 56% of the candidate volume; with error
	// probability 0.01 the probabilistic checker finds it essentially always.
	checker := NewSetChecker(0.01, 7)
	if checker.Subsumed(candidate, frame) {
		t.Error("probabilistic checker should find a 56% gap")
	}
}

func TestSetCheckerErrorProbabilityTradeoff(t *testing.T) {
	// A tiny interior gap: a sloppier checker (larger error probability,
	// fewer samples) should miss it more often than a strict one. We only
	// assert the sample counts are ordered and that the strict checker is
	// not worse than the sloppy one on aggregate.
	frame := []*model.Subscription{
		abs2(t, "bottom", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {0, 49}}),
		abs2(t, "top", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {51, 100}}),
		abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 49}, "b": {0, 100}}),
		abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {51, 100}, "b": {0, 100}}),
	}
	candidate := abs2(t, "cand", 30, map[model.AttributeType][2]float64{"a": {40, 60}, "b": {40, 60}})

	strict := NewSetChecker(0.001, 3)
	sloppy := NewSetChecker(0.5, 3)
	if strict.Samples() <= sloppy.Samples() {
		t.Errorf("stricter checker should sample more: %d vs %d", strict.Samples(), sloppy.Samples())
	}
	strictMisses, sloppyMisses := 0, 0
	for i := 0; i < 50; i++ {
		if strict.Subsumed(candidate, frame) {
			strictMisses++
		}
		if sloppy.Subsumed(candidate, frame) {
			sloppyMisses++
		}
	}
	if strictMisses > sloppyMisses {
		t.Errorf("strict checker missed the gap more often (%d) than the sloppy one (%d)", strictMisses, sloppyMisses)
	}
}

func TestSetCheckerIgnoresIncomparable(t *testing.T) {
	cand := abs2(t, "cand", 30, map[model.AttributeType][2]float64{"a": {10, 20}, "b": {10, 20}})
	otherAttrs := abs2(t, "other", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "c": {0, 100}})
	otherDeltaT := abs2(t, "dt", 60, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {0, 100}})
	checker := NewSetChecker(0.01, 5)
	if checker.Subsumed(cand, []*model.Subscription{otherAttrs, otherDeltaT}) {
		t.Error("incomparable subscriptions must not subsume")
	}
	if checker.Subsumed(cand, nil) {
		t.Error("empty set must not subsume")
	}
}

func TestNewSetCheckerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid error probability should panic")
		}
	}()
	NewSetChecker(1.5, 1)
}

func TestSetCheckerName(t *testing.T) {
	c := NewSetChecker(0.02, 1)
	if c.Name() != "set-filter(err=0.02)" {
		t.Errorf("Name() = %q", c.Name())
	}
	if (ExactChecker{}).Name() != "exact" {
		t.Error("ExactChecker name wrong")
	}
}

// Property: whenever the exact checker declares subsumption the probabilistic
// checker never produces a false negative that contradicts single-cover, and
// whenever the exact checker finds a gap of substantial volume the
// probabilistic checker agrees (no false positives beyond its error budget in
// this easy regime).
func TestPropertyExactVsProbabilistic(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(seedRaw int64) bool {
		_ = seedRaw
		// Generate 3 covering subscriptions and 1 candidate over 2 attrs.
		mk := func(id string) *model.Subscription {
			lo1 := rng.Range(0, 50)
			lo2 := rng.Range(0, 50)
			return abs2(t, id, 30, map[model.AttributeType][2]float64{
				"a": {lo1, lo1 + rng.Range(10, 50)},
				"b": {lo2, lo2 + rng.Range(10, 50)},
			})
		}
		set := []*model.Subscription{mk("x"), mk("y"), mk("z")}
		cand := mk("cand")
		exact := ExactChecker{}.Subsumed(cand, set)
		prob := NewSetChecker(0.001, rng.Int63()).Subsumed(cand, set)
		if exact && !prob {
			// The probabilistic checker may only err towards "subsumed";
			// an exact "yes" with probabilistic "no" would be a real bug
			// only if sampling hit a point outside the union, which cannot
			// happen when the union truly covers the candidate.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExactCheckerBudgetExhaustion(t *testing.T) {
	// With a budget of 1 the checker cannot finish and must answer "not
	// subsumed" (the safe direction), even for an obviously covered case
	// that is not single-covered.
	left := abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 60}, "b": {0, 100}})
	right := abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {40, 100}, "b": {0, 100}})
	mid := abs2(t, "mid", 30, map[model.AttributeType][2]float64{"a": {20, 80}, "b": {10, 90}})
	c := ExactChecker{MaxDepth: 1}
	if c.Subsumed(mid, []*model.Subscription{left, right}) {
		t.Error("budget-exhausted exact checker must answer false")
	}
}

func ExamplePairwiseCovered() {
	wide, _ := model.NewAbstractSubscription("wide",
		[]model.AttributeFilter{{Attr: "temp", Range: geom.NewInterval(-10, 10)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	narrow, _ := model.NewAbstractSubscription("narrow",
		[]model.AttributeFilter{{Attr: "temp", Range: geom.NewInterval(0, 5)}},
		geom.WholePlane(), 30, model.NoSpatialConstraint)
	fmt.Println(PairwiseCovered(narrow, []*model.Subscription{wide}))
	// Output: true
}

// --- the dense SetChecker against the map-based one it replaced ---

// refBox is the box representation the checker used before geom.Box became a
// sorted slice: dimension name -> interval.
type refBox map[string]geom.Interval

func refBoxOf(s *model.Subscription) refBox {
	b := refBox{}
	if s.Kind == model.KindIdentified {
		for d, f := range s.SensorFilters {
			b["d:"+string(d)] = f.Range
		}
		return b
	}
	for a, f := range s.AttrFilters {
		b["a:"+string(a)] = f.Range
	}
	if !s.Region.IsWholePlane() {
		b["__loc_x"] = s.Region.X
		b["__loc_y"] = s.Region.Y
	}
	return b
}

func (b refBox) overlaps(o refBox) bool {
	if len(b) != len(o) {
		return false
	}
	for k, iv := range b {
		ov, ok := o[k]
		if !ok || !iv.Overlaps(ov) {
			return false
		}
	}
	return true
}

func (b refBox) containsPoint(pt map[string]float64) bool {
	for k, iv := range b {
		v, ok := pt[k]
		if !ok || !iv.Contains(v) {
			return false
		}
	}
	return true
}

// refCoveredBy is model.Subscription.CoveredBy over the filter maps.
func refCoveredBy(s, other *model.Subscription) bool {
	if !refComparable(s, other) {
		return false
	}
	if s.Kind == model.KindIdentified {
		for d, f := range s.SensorFilters {
			if !other.SensorFilters[d].Range.Covers(f.Range) {
				return false
			}
		}
		return true
	}
	if !other.Region.Covers(s.Region) {
		return false
	}
	for a, f := range s.AttrFilters {
		if !other.AttrFilters[a].Range.Covers(f.Range) {
			return false
		}
	}
	return true
}

func refComparable(a, b *model.Subscription) bool {
	if a.Kind != b.Kind || a.SignatureKey() != b.SignatureKey() || a.DeltaT != b.DeltaT {
		return false
	}
	return a.Kind != model.KindAbstract || a.DeltaL == b.DeltaL
}

// refSubsumed is SetChecker.Subsumed as it was over map boxes: filter the
// comparable members, accept a single cover, keep the overlapping boxes,
// then sample the candidate's dimensions in sorted name order from the
// per-decision stream, drawing nothing for a zero-width dimension. sampled
// tells whether the verdict came from the sampling loop.
func refSubsumed(c *SetChecker, candidate *model.Subscription, set []*model.Subscription) (verdict, sampled bool) {
	var comp []*model.Subscription
	for _, s := range set {
		if s != nil && refComparable(s, candidate) {
			comp = append(comp, s)
		}
	}
	for _, s := range comp {
		if refCoveredBy(candidate, s) {
			return true, false
		}
	}
	cbox := refBoxOf(candidate)
	var overlapping []refBox
	for _, s := range comp {
		if b := refBoxOf(s); b.overlaps(cbox) {
			overlapping = append(overlapping, b)
		}
	}
	if len(overlapping) == 0 {
		return false, false
	}
	dims := make([]string, 0, len(cbox))
	for k := range cbox {
		dims = append(dims, k)
	}
	slices.Sort(dims)
	rng := stats.NewRNG(c.decisionSeed(candidate.ID))
	pt := map[string]float64{}
	for i := 0; i < c.Samples(); i++ {
		for _, d := range dims {
			iv := cbox[d]
			if iv.Width() == 0 {
				pt[d] = iv.Min
			} else {
				pt[d] = iv.Lerp(rng.Float64())
			}
		}
		covered := false
		for _, b := range overlapping {
			if b.containsPoint(pt) {
				covered = true
				break
			}
		}
		if !covered {
			return false, true
		}
	}
	return true, true
}

// randomSub draws from a space where members of a population often share a
// class and often overlap: abstract subscriptions over subsets of three
// attributes with bounded or whole-plane regions, identified ones over
// subsets of three sensors, a few zero-width filters, two values of δt and
// of δl.
func randomSub(rng *stats.RNG, id string, maxWidth float64) *model.Subscription {
	span := func() geom.Interval {
		if rng.Bool(0.08) {
			return geom.Point(float64(10 * rng.Intn(10)))
		}
		lo := rng.Range(0, 60)
		return geom.NewInterval(lo, lo+rng.Range(10, maxWidth))
	}
	deltaT := model.Timestamp(30)
	if rng.Bool(0.1) {
		deltaT = 60
	}
	// Mostly single-filter subscriptions: those are the ones unions cover.
	n := 1
	if rng.Bool(0.4) {
		n += rng.Intn(3)
	}
	picked := rng.Choose(3, n)
	var sub *model.Subscription
	var err error
	if rng.Bool(0.25) {
		var filters []model.SensorFilter
		for _, i := range picked {
			filters = append(filters, model.SensorFilter{Sensor: model.SensorID(fmt.Sprintf("d%d", i)), Attr: "a", Range: span()})
		}
		sub, err = model.NewIdentifiedSubscription(model.SubscriptionID(id), filters, deltaT)
	} else {
		var filters []model.AttributeFilter
		for _, i := range picked {
			filters = append(filters, model.AttributeFilter{Attr: model.AttributeType(fmt.Sprintf("t%d", i)), Range: span()})
		}
		region := geom.WholePlane()
		if rng.Bool(0.3) {
			region = geom.Region{X: span(), Y: geom.NewInterval(0, 100)}
		}
		deltaL := model.NoSpatialConstraint
		if rng.Bool(0.1) {
			deltaL = 50
		}
		sub, err = model.NewAbstractSubscription(model.SubscriptionID(id), filters, region, deltaT, deltaL)
	}
	if err != nil {
		panic(err)
	}
	return sub
}

func randomPopulation(rng *stats.RNG, n int) []*model.Subscription {
	set := make([]*model.Subscription, n)
	for i := range set {
		set[i] = randomSub(rng, fmt.Sprintf("m%d", i), 40)
	}
	return set
}

// randomFrame draws a candidate whose first dimension has zero width and a
// frame of four members covering all of it but a hole of 1.4 % of its volume:
// whether one of the checker's samples falls into the hole depends on every
// draw, so the verdict moves if a draw is spent on the zero-width dimension
// or the dimensions are sampled in another order.
func randomFrame(rng *stats.RNG, id string) (*model.Subscription, []*model.Subscription) {
	mk := func(id string, t0, t1, t2 geom.Interval) *model.Subscription {
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id), []model.AttributeFilter{
			{Attr: "t0", Range: t0}, {Attr: "t1", Range: t1}, {Attr: "t2", Range: t2},
		}, geom.WholePlane(), 30, model.NoSpatialConstraint)
		if err != nil {
			panic(err)
		}
		return s
	}
	at := rng.Range(10, 90)
	around, all := geom.NewInterval(at-5, at+5), geom.NewInterval(0, 100)
	x, y := rng.Range(5, 80), rng.Range(5, 80)
	return mk(id, geom.Point(at), all, all), []*model.Subscription{
		mk("left", around, geom.NewInterval(0, x), all),
		mk("right", around, geom.NewInterval(x+12, 100), all),
		mk("below", around, all, geom.NewInterval(0, y)),
		mk("above", around, all, geom.NewInterval(y+12, 100)),
	}
}

// checkDenseEquivalence compares the two checkers on one random (candidate,
// set) pair and reports the verdict and whether it was sampled.
func checkDenseEquivalence(t *testing.T, checker *SetChecker, rng *stats.RNG) (verdict, sampled bool) {
	t.Helper()
	id := fmt.Sprintf("c%d", rng.Intn(1<<20))
	var candidate *model.Subscription
	var set []*model.Subscription
	if rng.Bool(0.05) {
		candidate, set = randomFrame(rng, id)
	} else {
		candidate, set = randomSub(rng, id, 30), randomPopulation(rng, 1+rng.Intn(40))
		if rng.Bool(0.1) {
			set[rng.Intn(len(set))] = nil
		}
	}
	want, sampled := refSubsumed(checker, candidate, set)
	if got := checker.Subsumed(candidate, set); got != want {
		t.Fatalf("dense checker says %v, map-based reference %v\ncandidate %s\nset %v", got, want, candidate, set)
	}
	return want, sampled
}

// TestSetCheckerDenseEquivalence pins the dense checker's verdicts — and
// with them the order it draws from the per-decision stream — to the
// map-based reference over random pairs.
func TestSetCheckerDenseEquivalence(t *testing.T) {
	rng := stats.NewRNG(2024)
	checker := NewSetChecker(0.02, 17)
	var sampledTrue, sampledFalse, unsampledTrue, unsampledFalse int
	for i := 0; i < 12000; i++ {
		switch verdict, sampled := checkDenseEquivalence(t, checker, rng); {
		case sampled && verdict:
			sampledTrue++
		case sampled:
			sampledFalse++
		case verdict:
			unsampledTrue++
		default:
			unsampledFalse++
		}
	}
	t.Logf("sampled: %d subsumed, %d not; decided without sampling: %d subsumed, %d not",
		sampledTrue, sampledFalse, unsampledTrue, unsampledFalse)
	for _, n := range []int{sampledTrue, sampledFalse, unsampledTrue, unsampledFalse} {
		if n < 200 {
			t.Error("the random pairs leave one kind of decision almost untested")
		}
	}
}

func FuzzSetCheckerDenseEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed, seed*31+5)
	}
	f.Fuzz(func(t *testing.T, populationSeed, checkerSeed int64) {
		rng := stats.NewRNG(populationSeed)
		checker := NewSetChecker(0.02, checkerSeed)
		for i := 0; i < 20; i++ {
			checkDenseEquivalence(t, checker, rng)
		}
	})
}

// --- ExactChecker against a subtraction over the map boxes ---

func (b refBox) covers(o refBox) bool {
	if len(b) != len(o) {
		return false
	}
	for k, iv := range b {
		ov, ok := o[k]
		if !ok || !iv.Covers(ov) {
			return false
		}
	}
	return true
}

func (b refBox) empty() bool {
	for _, iv := range b {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// refSubtract is subtractBox over map boxes, cutting the dimensions in
// sorted name order.
func refSubtract(box, cut refBox) []refBox {
	var fragments []refBox
	remaining := maps.Clone(box)
	for _, d := range slices.Sorted(maps.Keys(box)) {
		rIv, cIv := remaining[d], cut[d]
		if rIv.Min < cIv.Min {
			frag := maps.Clone(remaining)
			frag[d] = geom.Interval{Min: rIv.Min, Max: math.Min(rIv.Max, cIv.Min)}
			fragments = append(fragments, frag)
		}
		if rIv.Max > cIv.Max {
			frag := maps.Clone(remaining)
			frag[d] = geom.Interval{Min: math.Max(rIv.Min, cIv.Max), Max: rIv.Max}
			fragments = append(fragments, frag)
		}
		remaining[d] = rIv.Intersect(cIv)
	}
	return fragments
}

// refCoveredByUnion is boxCoveredByUnion over map boxes, spending the budget
// the same way.
func refCoveredByUnion(box refBox, covers []refBox, budget *int) (covered, ok bool) {
	if *budget <= 0 {
		return false, false
	}
	*budget--
	if box.empty() {
		return true, true
	}
	for i, cv := range covers {
		if !cv.overlaps(box) {
			continue
		}
		if cv.covers(box) {
			return true, true
		}
		rest := covers[i+1:]
		for _, frag := range refSubtract(box, cv) {
			c, o := refCoveredByUnion(frag, rest, budget)
			if !o {
				return false, false
			}
			if !c {
				return false, true
			}
		}
		return true, true
	}
	return false, true
}

// randomTiling draws a candidate over two or three attributes and, as the
// set, the cells of a grid cut at random points across the whole space,
// shuffled, now and then without one cell. Subtracting the cells from the
// candidate takes many steps, and how many depends on the order the
// dimensions are cut in.
func randomTiling(rng *stats.RNG, id string) (*model.Subscription, []*model.Subscription) {
	k := 2 + rng.Intn(2)
	mk := func(id string, ivs []geom.Interval) *model.Subscription {
		filters := make([]model.AttributeFilter, len(ivs))
		for i, iv := range ivs {
			filters[i] = model.AttributeFilter{Attr: model.AttributeType(fmt.Sprintf("t%d", i)), Range: iv}
		}
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id), filters, geom.WholePlane(), 30, model.NoSpatialConstraint)
		if err != nil {
			panic(err)
		}
		return s
	}
	candidate := make([]geom.Interval, k)
	cuts := make([][]float64, k)
	for d := range candidate {
		candidate[d] = geom.NewInterval(rng.Range(0, 20), rng.Range(80, 100))
		cuts[d] = []float64{0}
		for range 1 + rng.Intn(2) {
			cuts[d] = append(cuts[d], cuts[d][len(cuts[d])-1]+rng.Range(10, 45))
		}
		cuts[d] = append(cuts[d], 100)
	}
	var set []*model.Subscription
	var cells func(ivs []geom.Interval)
	cells = func(ivs []geom.Interval) {
		d := len(ivs)
		if d == k {
			set = append(set, mk(fmt.Sprintf("m%d", len(set)), slices.Clone(ivs)))
			return
		}
		for i := 0; i+1 < len(cuts[d]); i++ {
			cells(append(ivs, geom.NewInterval(cuts[d][i], cuts[d][i+1])))
		}
	}
	cells(nil)
	for i := len(set) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		set[i], set[j] = set[j], set[i]
	}
	if rng.Bool(0.3) {
		set = set[1:]
	}
	return mk(id, candidate), set
}

// exactOutcome says how a refExactSubsumed verdict was reached.
type exactOutcome int

const (
	exactUnsubtracted exactOutcome = iota // a single cover, or nothing overlapping
	exactCovered                          // the subtraction used up the candidate
	exactGap                              // the subtraction left a fragment
	exactExhausted                        // the budget ran out
)

// refExactSubsumed is ExactChecker.Subsumed over map boxes: a single
// comparable cover decides, otherwise the comparable overlapping members, in
// set order, are subtracted from the candidate. steps is the budget the
// subtraction spent.
func refExactSubsumed(c ExactChecker, candidate *model.Subscription, set []*model.Subscription) (verdict bool, outcome exactOutcome, steps int) {
	cbox := refBoxOf(candidate)
	var overlapping []refBox
	for _, s := range set {
		if s == nil || !refComparable(s, candidate) {
			continue
		}
		if refCoveredBy(candidate, s) {
			return true, exactUnsubtracted, 0
		}
		if b := refBoxOf(s); b.overlaps(cbox) {
			overlapping = append(overlapping, b)
		}
	}
	if len(overlapping) == 0 {
		return false, exactUnsubtracted, 0
	}
	budget := c.MaxDepth
	if budget <= 0 {
		budget = 10000
	}
	start := budget
	covered, ok := refCoveredByUnion(cbox, overlapping, &budget)
	steps = start - budget
	switch {
	case !ok:
		return false, exactExhausted, steps
	case covered:
		return true, exactCovered, steps
	default:
		return false, exactGap, steps
	}
}

// TestExactCheckerDenseEquivalence holds ExactChecker — whose verdicts
// TestPaperEvaluation's fig12 false-positive count rests on — to a box
// subtraction over named dimensions, on fixed rows and random pairs. Small
// subtraction budgets, and a covered verdict checked again with exactly the
// budget the reference spent on it and with one step less, make the verdict
// depend on the order fragments are cut in, not only on the geometry.
func TestExactCheckerDenseEquivalence(t *testing.T) {
	check := func(c ExactChecker, candidate *model.Subscription, set []*model.Subscription) exactOutcome {
		t.Helper()
		want, outcome, steps := refExactSubsumed(c, candidate, set)
		if got := c.Subsumed(candidate, set); got != want {
			t.Fatalf("exact checker (budget %d) says %v, map-based reference %v\ncandidate %s\nset %v", c.MaxDepth, got, want, candidate, set)
		}
		if outcome == exactCovered && steps > 1 {
			if !(ExactChecker{MaxDepth: steps}).Subsumed(candidate, set) || (ExactChecker{MaxDepth: steps - 1}).Subsumed(candidate, set) {
				t.Fatalf("the reference needs exactly %d subtraction steps, the exact checker does not\ncandidate %s\nset %v", steps, candidate, set)
			}
		}
		return outcome
	}

	// Fixed rows: one class mixing whole-plane and bounded abstract
	// subscriptions (the region is not part of a class). A whole-plane box
	// is two dimensions shorter than a bounded one, so it never joins a
	// union covering a bounded candidate, even where its region would: the
	// conservative "not subsumed", on both checkers.
	mk := func(id string, region geom.Region, lo, hi float64) *model.Subscription {
		s, err := model.NewAbstractSubscription(model.SubscriptionID(id),
			[]model.AttributeFilter{{Attr: "t0", Range: geom.NewInterval(lo, hi)}}, region, 30, model.NoSpatialConstraint)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	area := geom.NewRegion(0, 0, 100, 100)
	candidate := mk("cand", geom.NewRegion(10, 10, 90, 90), 20, 80)
	for _, row := range []struct {
		name string
		set  []*model.Subscription
		want bool
	}{
		{"bounded members", []*model.Subscription{mk("left", area, 0, 60), mk("right", area, 40, 100)}, true},
		{"a whole-plane member", []*model.Subscription{mk("left", geom.WholePlane(), 0, 60), mk("right", area, 40, 100)}, false},
		{"whole-plane members", []*model.Subscription{mk("left", geom.WholePlane(), 0, 60), mk("right", geom.WholePlane(), 40, 100)}, false},
	} {
		if !candidate.ComparableWith(row.set[0]) || !candidate.ComparableWith(row.set[1]) {
			t.Fatalf("%s: the members must share the candidate's class", row.name)
		}
		check(ExactChecker{}, candidate, row.set)
		if got := (ExactChecker{}).Subsumed(candidate, row.set); got != row.want {
			t.Errorf("%s: exact checker says %v, want %v", row.name, got, row.want)
		}
		checker := NewSetChecker(0.02, 17)
		if want, _ := refSubsumed(checker, candidate, row.set); want != row.want {
			t.Errorf("%s: map-based set checker reference says %v, want %v", row.name, want, row.want)
		}
		if got := checker.Subsumed(candidate, row.set); got != row.want {
			t.Errorf("%s: set checker says %v, want %v", row.name, got, row.want)
		}
	}

	rng := stats.NewRNG(2025)
	var outcomes [4]int
	for i := 0; i < 12000; i++ {
		id := fmt.Sprintf("c%d", rng.Intn(1<<20))
		var candidate *model.Subscription
		var set []*model.Subscription
		switch {
		case rng.Bool(0.05):
			candidate, set = randomFrame(rng, id)
		case rng.Bool(0.1):
			candidate, set = randomTiling(rng, id)
		default:
			candidate, set = randomSub(rng, id, 30), randomPopulation(rng, 1+rng.Intn(40))
			if rng.Bool(0.1) {
				set[rng.Intn(len(set))] = nil
			}
		}
		var c ExactChecker
		if rng.Bool(0.3) {
			c.MaxDepth = 1 + rng.Intn(12)
		}
		outcomes[check(c, candidate, set)]++
	}
	t.Logf("decided without subtraction %d, covered %d, gap %d, budget exhausted %d",
		outcomes[exactUnsubtracted], outcomes[exactCovered], outcomes[exactGap], outcomes[exactExhausted])
	for _, n := range outcomes {
		if n < 100 {
			t.Error("the random pairs leave one kind of decision almost untested")
		}
	}
}

// TestSetCheckerClearsItsScratch: the boxes a decision gathered do not stay
// reachable from the checker after it, whichever way it was decided.
func TestSetCheckerClearsItsScratch(t *testing.T) {
	left := abs2(t, "left", 30, map[model.AttributeType][2]float64{"a": {0, 60}, "b": {0, 100}})
	right := abs2(t, "right", 30, map[model.AttributeType][2]float64{"a": {40, 100}, "b": {0, 100}})
	gapRight := abs2(t, "gap", 30, map[model.AttributeType][2]float64{"a": {70, 100}, "b": {0, 100}})
	wide := abs2(t, "wide", 30, map[model.AttributeType][2]float64{"a": {0, 100}, "b": {0, 100}})
	mid := abs2(t, "mid", 30, map[model.AttributeType][2]float64{"a": {20, 80}, "b": {10, 90}})
	checker := NewSetChecker(0.01, 42)
	for _, row := range []struct {
		name string
		set  []*model.Subscription
		want bool
	}{
		{"sampled, covered", []*model.Subscription{left, right}, true},
		{"sampled, gap", []*model.Subscription{left, gapRight}, false},
		{"single cover after two overlapping members", []*model.Subscription{left, right, wide}, true},
	} {
		if got := checker.Subsumed(mid, row.set); got != row.want {
			t.Fatalf("%s: verdict %v, want %v", row.name, got, row.want)
		}
		scratch := checker.boxScratch[:cap(checker.boxScratch)]
		if len(scratch) < 2 {
			t.Fatalf("%s: the decision gathered %d boxes into the scratch, want 2", row.name, len(scratch))
		}
		for i, b := range scratch {
			if b != nil {
				t.Errorf("%s: scratch slot %d still holds a member's box %v", row.name, i, b)
			}
		}
	}
}
