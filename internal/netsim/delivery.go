package netsim

import (
	"fmt"
	"strings"
)

// DeliveryMode selects how a trace replay interleaves event injection with
// message propagation. It is the knob that decides whether the concurrent
// engine actually runs concurrently — and, for Windowed, how many rounds it
// may keep in flight at once.
type DeliveryMode int

const (
	// Quiescent drains the network to quiescence after every injected
	// event: event i+1 enters the network only after every message caused
	// by event i has been processed. This is the semantics the sequential
	// engine's experiments use and the baseline the conformance suite
	// compares everything against. On the concurrent engine it serializes
	// the replay (at most one event is in flight), so it is concurrent in
	// name only.
	Quiescent DeliveryMode = iota
	// Pipelined injects a whole round of events before the next one waits
	// for it to drain, so every message produced by the round is in flight
	// at once and every node with work runs at the same time on the
	// concurrent engine. It is Windowed with Lag 0 under another name: the
	// replay loop has no arm of its own for it. Delivery interleaving
	// within a round is unspecified; conformance is defined per round
	// instead: the traffic totals and the multiset of deliveries of each
	// round must equal the sequential quiescent run's.
	Pipelined
	// Windowed relaxes the round barrier: round r+1..r+Lag may be injected
	// while round r is still draining, so up to Lag+1 rounds of messages
	// overlap in flight. Round progress is tracked by the network watermark
	// (the highest round that is fully injected and has no item in flight,
	// see watermark.go): round r is injected only once it has reached
	// r-1-Lag. Deliveries are stamped with the round of their newest
	// component event, which is a pure function of the delivered complex
	// event and therefore identical across interleavings.
	Windowed
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case Quiescent:
		return "quiescent"
	case Pipelined:
		return "pipelined"
	case Windowed:
		return "windowed"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DeliveryModeNames returns the CLI spellings of every delivery mode, in
// definition order. CLIs use it to build usage and error messages that stay
// in sync with the engine.
func DeliveryModeNames() []string {
	return []string{Quiescent.String(), Pipelined.String(), Windowed.String()}
}

// ParseDeliveryMode maps the CLI spelling of a mode onto its value.
func ParseDeliveryMode(s string) (DeliveryMode, error) {
	switch s {
	case "quiescent", "":
		return Quiescent, nil
	case "pipelined":
		return Pipelined, nil
	case "windowed":
		return Windowed, nil
	default:
		return Quiescent, fmt.Errorf("netsim: unknown delivery mode %q (valid modes: %s)",
			s, strings.Join(DeliveryModeNames(), ", "))
	}
}

// MaxReplayLag bounds the cross-round pipelining of the Windowed mode. The
// watermark ledger counts each active round's in-flight items in a fixed
// ring indexed by round number (ledgerRingSize), so the number of rounds
// simultaneously in flight (Lag+1, plus the round being injected) must stay
// well below the ring size; 512 leaves a 2x margin and is far beyond any
// useful overlap (the benefit of additional lag flattens within single
// digits).
const MaxReplayLag = 512

// ReplayOptions parameterise Runtime.ReplayRounds.
type ReplayOptions struct {
	// Mode is the delivery semantics of the replay (default Quiescent).
	Mode DeliveryMode
	// Lag is the cross-round pipelining bound of the Windowed mode: round
	// r+1..r+Lag may be injected while round r is still draining. It must
	// be zero for the other modes and at most MaxReplayLag for Windowed.
	// Lag 0 under Windowed reproduces Pipelined behaviour exactly.
	Lag int
}

// Validate reports options every replay would reject: an unknown mode, a
// negative lag, a lag outside the Windowed mode, or one above MaxReplayLag.
// ReplayRounds checks it first; configurations that fix their replay options
// up front check it when they are built.
func (o ReplayOptions) Validate() error {
	switch o.Mode {
	case Quiescent, Pipelined, Windowed:
	default:
		return fmt.Errorf("netsim: invalid delivery mode %v", o.Mode)
	}
	if o.Lag < 0 {
		return fmt.Errorf("netsim: negative replay lag %d", o.Lag)
	}
	if o.Lag > 0 && o.Mode != Windowed {
		return fmt.Errorf("netsim: replay lag %d requires the windowed delivery mode (got %v)", o.Lag, o.Mode)
	}
	if o.Lag > MaxReplayLag {
		return fmt.Errorf("netsim: replay lag %d exceeds the maximum of %d", o.Lag, MaxReplayLag)
	}
	return nil
}

// RequiredValidityFactor returns the minimum event-window validity factor
// (validity = factor x max δt) a protocol node needs for the given replay
// semantics: the default factor of 2 for Quiescent and Pipelined replays,
// L+2 for a Windowed replay with lag L. A windowed replay lets arrivals of
// rounds r..r+L interleave, so a node may see a round-r trigger after it
// already pruned against a round-(r+L) timestamp, and L+2 round intervals
// are meant to keep the partners of such a trigger stored. Runs with
// different factors then agree only where no trigger reaches further back
// than that, and a forwarded component is a trigger one round older per
// matching stage, so the factor needed grows with an operator's matching
// depth (ROADMAP, finding 2) and L+2 is not always enough: the sequential
// `cqexp -scale quick -quiet -delivery windowed -lag 2` differs from the
// quiescent run in 13 lines. Nor does the default factor make a pipelined
// replay, whose arrivals are reordered within a round only, equal to the
// quiescent one: `cqexp -scale quick -quiet -delivery pipelined` differs
// from it in 16 lines (23 at default scale). The conformance suite pins
// every approach in every mode, on its own fixture only; on the evaluation
// scenarios the tests pin windowed equal to quiescent only for operator
// placement and Filter-Split-Forward on the small one, and
// Filter-Split-Forward's final points across lags. ROADMAP direction 5(a)
// replaces the factor.
func RequiredValidityFactor(mode DeliveryMode, lag int) int {
	if mode == Windowed && lag > 0 {
		return lag + 2
	}
	return 2
}
