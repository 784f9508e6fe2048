package netsim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"sensorcq/internal/model"
	"sensorcq/internal/topology"
)

// cancellingHandler is the flood handler of one node that cancels a replay's
// context when a given reading is published.
type cancellingHandler struct {
	*floodHandler
	cancelSeq uint64
	cancel    context.CancelFunc
}

func (h *cancellingHandler) LocalPublish(ctx *Context, ev model.Event) {
	if ev.Seq == h.cancelSeq {
		h.cancel()
	}
	h.floodHandler.LocalPublish(ctx, ev)
}

// injectedRounds reads the engine's round counter: the rounds a replay has
// injected so far, drained or not.
func injectedRounds(t *testing.T, rt Runtime) int {
	t.Helper()
	switch e := rt.(type) {
	case *Engine:
		return int(e.round.Load())
	case *ConcurrentEngine:
		return int(e.round.Load())
	}
	t.Fatalf("unknown runtime %T", rt)
	return 0
}

// deliveryCounts keys every delivery by node, subscription, round stamp and
// component sequence numbers.
func deliveryCounts(ds []Delivery) map[string]int {
	out := map[string]int{}
	for _, d := range ds {
		seqs := make([]uint64, len(d.Events))
		for i, e := range d.Events {
			seqs[i] = e.Seq
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		out[fmt.Sprintf("%d|%s|%d|%v", d.Node, d.SubID, d.Round, seqs)]++
	}
	return out
}

// TestCancelledWindowedReplayIsCompleted pins what a cancelled replay leaves
// behind: leftovers, not a state. A Windowed lag-2 replay cancelled mid-trace
// is finished by whatever drains next — a Flush, a waiting Publish, or a
// following replay in another mode — on both engines, losing nothing: no
// dropped message, a final watermark equal to the rounds injected, and the
// traffic and delivery multiset of the same rounds replayed uncancelled.
func TestCancelledWindowedReplayIsCompleted(t *testing.T) {
	const (
		nodes, source    = 6, topology.NodeID(5)
		rounds, perRound = 12, 4
		cancelSeq        = perRound + 1 // the first reading of round 2
	)
	windowed := ReplayOptions{Mode: Windowed, Lag: 2}
	extra := testEvent(rounds*perRound + 1)
	// Each completion finishes the leftovers of the first k rounds, on the
	// cancelled engine and on the uncancelled reference alike, and returns
	// the rounds it added.
	completions := []struct {
		name string
		do   func(rt Runtime, rest [][]Publication) (int, error)
	}{
		{"Flush", func(rt Runtime, _ [][]Publication) (int, error) {
			rt.Flush()
			return 0, nil
		}},
		{"Publish", func(rt Runtime, _ [][]Publication) (int, error) {
			return 0, rt.PublishContext(context.Background(), source, extra)
		}},
		{"quiescent replay", func(rt Runtime, rest [][]Publication) (int, error) {
			return len(rest), rt.ReplayRounds(rest, ReplayOptions{Mode: Quiescent})
		}},
	}
	for _, concurrent := range []bool{false, true} {
		newRuntime := func(t *testing.T, factory HandlerFactory) Runtime {
			if !concurrent {
				return NewEngine(lineGraph(t, nodes), factory)
			}
			conc := NewConcurrentEngineWorkers(lineGraph(t, nodes), factory, 2)
			t.Cleanup(conc.Close)
			return conc
		}
		for _, c := range completions {
			t.Run(fmt.Sprintf("%s/concurrent=%v", c.name, concurrent), func(t *testing.T) {
				trace := windowedTrace(source, rounds, perRound)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rt := newRuntime(t, func(n topology.NodeID) Handler {
					return &cancellingHandler{floodHandler: newFloodHandler(n).(*floodHandler), cancelSeq: cancelSeq, cancel: cancel}
				})
				if err := rt.ReplayRoundsContext(ctx, trace, windowed); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
				}
				k := injectedRounds(t, rt)
				if k < 2 || k >= rounds {
					t.Fatalf("replay injected %d of %d rounds before noticing the cancellation: not mid-trace", k, rounds)
				}
				added, err := c.do(rt, trace[k:])
				if err != nil {
					t.Fatal(err)
				}

				ref := newRuntime(t, newFloodHandler)
				if err := ref.ReplayRounds(trace[:k], windowed); err != nil {
					t.Fatal(err)
				}
				if _, err := c.do(ref, trace[k:]); err != nil {
					t.Fatal(err)
				}

				if n := rt.Metrics().DroppedMessages(); n != 0 {
					t.Errorf("dropped %d messages", n)
				}
				if wm := rt.Watermark(); wm != k+added {
					t.Errorf("final watermark = %d, want %d (%d rounds injected before the cancellation, %d after)", wm, k+added, k, added)
				}
				if got, want := rt.Metrics().Snapshot(), ref.Metrics().Snapshot(); got != want {
					t.Errorf("traffic %+v, uncancelled run %+v", got, want)
				}
				got, want := deliveryCounts(rt.Deliveries()), deliveryCounts(ref.Deliveries())
				if len(got) != len(want) {
					t.Errorf("%d distinct deliveries, uncancelled run %d", len(got), len(want))
				}
				for key, n := range want {
					if got[key] != n {
						t.Errorf("delivery %s: %d times, uncancelled run %d", key, got[key], n)
					}
				}
			})
		}
	}
}
