package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sensorcq/internal/model"
	"sensorcq/internal/netsim"
	"sensorcq/internal/oracle"
)

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// tally counts what a run attempted and what failed; failed_ops_ratio and the
// result line's attempted/failed are read off it.
type tally struct {
	attempted, failed int64
	checks            []check
}

// expect records a check and charges its failures to the run.
func (t *tally) expect(name string, failures int64, detail string) {
	t.failed += failures
	t.checks = append(t.checks, check{Name: name, OK: failures == 0, Detail: detail})
}

func (t *tally) correct() bool {
	return !slices.ContainsFunc(t.checks, func(c check) bool { return !c.OK })
}

// deliveryKey identifies a delivery independently of the order it was
// produced in: subscription, stamped round and the component readings.
func deliveryKey(sub string, round int, seqs []uint64) string {
	seqs = slices.Clone(seqs)
	slices.Sort(seqs)
	var b strings.Builder
	b.WriteString(sub)
	b.WriteByte('@')
	b.WriteString(strconv.Itoa(round))
	for _, s := range seqs {
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(s, 10))
	}
	return b.String()
}

func keyOf(d netsim.Delivery) string {
	return deliveryKey(string(d.SubID), d.Round, d.Events.Seqs())
}

// keysOf renders the deliveries stamped with a round in [1, maxRound]
// (maxRound <= 0 keeps all).
func keysOf(ds []netsim.Delivery, maxRound int) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		if maxRound <= 0 || d.Round <= maxRound {
			out = append(out, keyOf(d))
		}
	}
	return out
}

// multisetDiff compares two delivery multisets and returns how many keys of
// want are missing from got and how many keys of got are extra (a duplicate
// counts as extra).
func multisetDiff(got, want []string) (missing, extra int64) {
	counts := make(map[string]int, len(want))
	for _, k := range want {
		counts[k]++
	}
	for _, k := range got {
		if counts[k] > 0 {
			counts[k]--
		} else {
			extra++
		}
	}
	for _, c := range counts {
		missing += int64(c)
	}
	return missing, extra
}

// expectSameDeliveries charges every missing or extra delivery to the run.
func (t *tally) expectSameDeliveries(name string, got, want []string) {
	missing, extra := multisetDiff(got, want)
	t.attempted += int64(len(want))
	t.expect(name, missing+extra, fmt.Sprintf("%d deliveries, %d missing, %d extra", len(want), missing, extra))
}

// expectRecall charges the oracle's expected pairs that were not delivered
// to the run. Filter-Split-Forward's set filter is allowed to lose a few by
// design, so the check itself only fails below 0.99.
func (t *tally) expectRecall(recall float64, expected int, what string) {
	t.attempted += int64(expected)
	t.failed += int64(float64(expected)*(1-recall) + 0.5)
	t.checks = append(t.checks, check{Name: "recall against the oracle", OK: recall >= 0.99,
		Detail: fmt.Sprintf("%.4f over %d expected %s", recall, expected, what)})
}

// oracleBudget caps the work handed to the network-free oracle, which tries
// every sampled subscription on every reading against a global window of a
// few rounds: subscriptions × readings × readings per round.
const oracleBudget = 20_000_000

// recallSample measures recall against internal/oracle on a sample: up to
// 40 evenly spaced subscriptions, the readings of the sensors inside their
// regions (no other reading can match them), and as many leading rounds as
// oracleBudget allows. The oracle's window starts empty, so it expects a
// subset of what a network that already held earlier readings delivers;
// recall counts only expected pairs, and 1 means none was lost.
func recallSample(subs []*model.Subscription, rounds [][]model.Event, delivered func(model.SubscriptionID) map[uint64]bool) (recall float64, expected int) {
	const maxSubs = 40
	step := max(1, len(subs)/maxSubs)
	var sample []*model.Subscription
	for i := 0; i < len(subs); i += step {
		sample = append(sample, subs[i])
	}
	var events []model.Event
	for _, round := range rounds {
		var inside []model.Event
		for _, ev := range round {
			if slices.ContainsFunc(sample, func(s *model.Subscription) bool { return s.Region.Contains(ev.Location) }) {
				inside = append(inside, ev)
			}
		}
		if len(events) > 0 && len(sample)*(len(events)+len(inside))*len(inside) > oracleBudget {
			break
		}
		events = append(events, inside...)
	}
	exp := oracle.Compute(sample, events)
	return exp.Recall(delivered), exp.TotalExpected()
}
