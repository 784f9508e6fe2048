package dataset

import (
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

func smallDeployment(t *testing.T) *topology.Deployment {
	t.Helper()
	dep, err := topology.GenerateDeployment(topology.DeploymentConfig{
		TotalNodes:  20,
		SensorNodes: 15,
		Groups:      3,
		Attributes:  model.DefaultAttributes(),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestGenerateTraceShape(t *testing.T) {
	dep := smallDeployment(t)
	trace, err := Generate(dep, Config{Rounds: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if trace.NumEvents() != 10*len(dep.Sensors) {
		t.Fatalf("events = %d, want %d", trace.NumEvents(), 10*len(dep.Sensors))
	}
	if len(trace.ByRound) != 10 {
		t.Fatalf("rounds = %d", len(trace.ByRound))
	}
	if trace.RoundInterval != 120 {
		t.Errorf("default round interval = %d, want 120", trace.RoundInterval)
	}
	// Sequence numbers unique, timestamps non-decreasing within a round.
	seen := map[uint64]bool{}
	for _, round := range trace.ByRound {
		if len(round) != len(dep.Sensors) {
			t.Fatalf("round has %d events, want %d", len(round), len(dep.Sensors))
		}
		for i, ev := range round {
			if seen[ev.Seq] {
				t.Fatalf("duplicate seq %d", ev.Seq)
			}
			seen[ev.Seq] = true
			if i > 0 && ev.Time < round[i-1].Time {
				t.Fatal("events within a round must be time-ordered")
			}
		}
	}
	// Every attribute has summary statistics and values within the profile
	// clamp.
	profiles := map[model.AttributeType]AttributeProfile{}
	for _, p := range DefaultProfiles() {
		profiles[p.Attr] = p
	}
	for _, attr := range model.DefaultAttributes() {
		if _, ok := trace.Medians[attr]; !ok {
			t.Errorf("missing median for %s", attr)
		}
		if trace.Spreads[attr] <= 0 {
			t.Errorf("spread for %s should be positive", attr)
		}
		p := profiles[attr]
		if trace.Mins[attr] < p.Min || trace.Maxs[attr] > p.Max {
			t.Errorf("%s values outside clamp: [%g, %g] not in [%g, %g]",
				attr, trace.Mins[attr], trace.Maxs[attr], p.Min, p.Max)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	dep := smallDeployment(t)
	a, err := Generate(dep, Config{Rounds: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(dep, Config{Rounds: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical seeds", i)
		}
	}
	c, err := Generate(dep, Config{Rounds: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Events {
		if a.Events[i].Value == c.Events[i].Value {
			same++
		}
	}
	if same == len(a.Events) {
		t.Error("different seeds should produce different traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	dep := smallDeployment(t)
	if _, err := Generate(dep, Config{Rounds: 0}); err == nil {
		t.Error("zero rounds should fail")
	}
	// A deployment with an attribute missing a profile fails loudly.
	dep.Sensors[0].Attr = "exotic_measurement"
	if _, err := Generate(dep, Config{Rounds: 3, Seed: 1}); err == nil {
		t.Error("missing profile should fail")
	}
}

func TestTraceTimestampsFollowRounds(t *testing.T) {
	dep := smallDeployment(t)
	trace, err := Generate(dep, Config{Rounds: 4, RoundInterval: 60, StartTime: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for r, round := range trace.ByRound {
		lo := model.Timestamp(1000 + r*60)
		hi := lo + 60
		for _, ev := range round {
			if ev.Time < lo || ev.Time >= hi {
				t.Fatalf("round %d event at %d outside [%d, %d)", r, ev.Time, lo, hi)
			}
		}
	}
}

// TestStreamerMatchesGenerate pins the streaming contract: NextRound must
// produce bit-identical rounds to Generate for the same configuration, the
// accumulated statistics must match the trace's, and the returned rounds must
// alias a reusable buffer (callers copy to retain).
func TestStreamerMatchesGenerate(t *testing.T) {
	dep := smallDeployment(t)
	cfg := Config{Rounds: 8, RoundInterval: 90, StartTime: 500, Seed: 21}
	trace, err := Generate(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewStreamer(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalRounds() != cfg.Rounds {
		t.Fatalf("TotalRounds = %d, want %d", g.TotalRounds(), cfg.Rounds)
	}
	if g.RoundInterval() != trace.RoundInterval {
		t.Fatalf("RoundInterval = %d, want %d", g.RoundInterval(), trace.RoundInterval)
	}
	var firstBacking *model.Event
	for r := 0; r < cfg.Rounds; r++ {
		round := g.NextRound()
		if round == nil {
			t.Fatalf("stream exhausted after %d rounds, want %d", r, cfg.Rounds)
		}
		if len(round) > 0 {
			if firstBacking == nil {
				firstBacking = &round[0]
			} else if &round[0] != firstBacking {
				t.Fatal("NextRound reallocated its buffer between rounds")
			}
		}
		if len(round) != len(trace.ByRound[r]) {
			t.Fatalf("round %d has %d events, want %d", r, len(round), len(trace.ByRound[r]))
		}
		for i := range round {
			if round[i] != trace.ByRound[r][i] {
				t.Fatalf("round %d event %d differs: %+v vs %+v", r, i, round[i], trace.ByRound[r][i])
			}
		}
		if g.RoundsGenerated() != r+1 {
			t.Fatalf("RoundsGenerated = %d after round %d", g.RoundsGenerated(), r)
		}
	}
	if g.NextRound() != nil {
		t.Fatal("NextRound should return nil once all rounds are generated")
	}
	st := g.Stats()
	for _, attr := range model.DefaultAttributes() {
		if st.Medians[attr] != trace.Medians[attr] {
			t.Errorf("%s: streamed median %g != trace median %g", attr, st.Medians[attr], trace.Medians[attr])
		}
		if st.Spreads[attr] != trace.Spreads[attr] {
			t.Errorf("%s: streamed spread %g != trace spread %g", attr, st.Spreads[attr], trace.Spreads[attr])
		}
		if st.Mins[attr] != trace.Mins[attr] || st.Maxs[attr] != trace.Maxs[attr] {
			t.Errorf("%s: streamed extremes differ from trace", attr)
		}
	}
}

// TestGenerateRoundsAliasEvents pins that a materialised trace stores each
// reading once: every ByRound row is a view of its stretch of Events, and
// its capacity ends with the round, so appending to a row reallocates it
// instead of overwriting the first reading of the next round.
func TestGenerateRoundsAliasEvents(t *testing.T) {
	dep := smallDeployment(t)
	trace, err := Generate(dep, Config{Rounds: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for r, round := range trace.ByRound {
		if len(round) == 0 || &round[0] != &trace.Events[at] {
			t.Fatalf("round %d is not a view of Events at %d", r, at)
		}
		if cap(round) != len(round) {
			t.Fatalf("round %d has capacity %d beyond its %d readings", r, cap(round), len(round))
		}
		at += len(round)
	}
	if at != len(trace.Events) {
		t.Fatalf("the rounds cover %d of %d readings", at, len(trace.Events))
	}
	next := trace.ByRound[1][0]
	grown := append(trace.ByRound[0], model.Event{Seq: 1 << 40})
	if trace.ByRound[1][0] != next || &grown[0] == &trace.ByRound[0][0] {
		t.Error("appending to round 0 wrote into round 1's storage")
	}
}
