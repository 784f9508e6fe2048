package main

import "testing"

func TestMultisetDiffFlagsDroppedAndDuplicatedDeliveries(t *testing.T) {
	reference := []string{
		deliveryKey("q1", 1, []uint64{3, 1, 2}),
		deliveryKey("q1", 2, []uint64{4, 5}),
		deliveryKey("q2", 2, []uint64{4}),
	}
	same := []string{
		deliveryKey("q2", 2, []uint64{4}),
		deliveryKey("q1", 1, []uint64{1, 2, 3}), // component order does not matter
		deliveryKey("q1", 2, []uint64{5, 4}),
	}
	if missing, extra := multisetDiff(same, reference); missing != 0 || extra != 0 {
		t.Errorf("equal multisets: %d missing, %d extra", missing, extra)
	}

	dropped := same[:2]
	if missing, extra := multisetDiff(dropped, reference); missing != 1 || extra != 0 {
		t.Errorf("one dropped delivery: %d missing, %d extra; want 1, 0", missing, extra)
	}
	duplicated := append([]string{same[0]}, same...)
	if missing, extra := multisetDiff(duplicated, reference); missing != 0 || extra != 1 {
		t.Errorf("one duplicated delivery: %d missing, %d extra; want 0, 1", missing, extra)
	}

	var tl tally
	tl.expectSameDeliveries("frames", append(dropped, dropped[0]), reference)
	if tl.failed != 2 || tl.correct() || tl.attempted != 3 {
		t.Errorf("tally after one dropped and one duplicated delivery = %+v, want 2 failed of 3 and not correct", tl)
	}
}
