package main

import (
	"fmt"
	"slices"
	"testing"
)

func TestDiffIDsRejectsWrongPartners(t *testing.T) {
	want := []int64{2, 5, 9}
	if e, m := diffIDs([]int64{2, 5, 9}, want); e != 0 || m != 0 {
		t.Fatalf("equal lists: extra %d, missing %d", e, m)
	}
	for _, tc := range []struct {
		got            []int64
		extra, missing int
	}{
		{[]int64{2, 5, 7, 9}, 1, 0}, // a stale partner
		{[]int64{2, 9}, 0, 1},       // a lost partner
		{[]int64{1, 5, 9, 11}, 2, 1},
		{nil, 0, 3},
	} {
		if e, m := diffIDs(tc.got, want); e != tc.extra || m != tc.missing {
			t.Errorf("diffIDs(%v) = extra %d, missing %d; want %d, %d", tc.got, e, m, tc.extra, tc.missing)
		}
	}
}

func TestSubsetCheckRejectsWrongAnswer(t *testing.T) {
	window := []int64{1, 2, 3, 4}
	partners := map[int64][]int64{
		1: {2, 9}, // 9 is outside the window
		2: {1, 3},
		3: {2},
		4: nil,
	}
	right := [][2]int64{{1, 2}, {2, 3}}
	if !subsetHolds(window, right, partners) {
		t.Fatal("the exact answer was rejected")
	}
	for _, wrong := range [][][2]int64{
		{{1, 2}},                 // a pair missing
		{{1, 2}, {2, 3}, {3, 4}}, // a pair no match answer names
		{{2, 3}, {1, 2}},         // unsorted
		{{1, 2}, {1, 2}, {2, 3}}, // duplicated
		nil,
	} {
		if subsetHolds(window, wrong, partners) {
			t.Errorf("wrong answer %v accepted", wrong)
		}
	}
}

func TestPairCompletenessFloorRejectsMissedMates(t *testing.T) {
	cluster := map[int64]int64{1: 10, 2: 10, 3: 10, 4: 20}
	members := map[int64][]int64{10: {1, 2, 3}, 20: {4}}
	ids := []int64{1, 2, 4}
	full := map[int64][]int64{1: {2, 3}, 2: {1, 3}, 4: {1}}
	if pc := pairCompleteness(ids, full, cluster, members); pc != 1 {
		t.Fatalf("every mate served: completeness %v, want 1", pc)
	}
	half := map[int64][]int64{1: {2}, 2: {3}, 4: {1}}
	pc := pairCompleteness(ids, half, cluster, members)
	if pc != 0.5 {
		t.Fatalf("two of four mate pairs served: completeness %v, want 0.5", pc)
	}
	if floor := 0.8; pc >= floor {
		t.Fatalf("completeness %v passes floor %v", pc, floor)
	}
	if pc := pairCompleteness([]int64{4}, half, cluster, members); pc != 1 {
		t.Fatalf("no mates to find: completeness %v, want 1", pc)
	}
}

// tinyWorkload keeps generation to a couple of seconds.
var tinyWorkload = workload{
	name: "tiny", target: 3000, batches: 2,
	matchPerSecond: 20, windowsPerSecond: 3, checkStride: 50,
}

func TestInputDigestFollowsSeed(t *testing.T) {
	digest := func(w workload, seed int64) string {
		t.Helper()
		in, err := generate(w, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.offers) != w.target || len(in.offers)-in.seedN != w.batches*batchSize {
			t.Fatalf("%d offers with %d seed; want %d with a %d-offer tail", len(in.offers), in.seedN, w.target, w.batches*batchSize)
		}
		return in.digest()
	}
	a, b, c := digest(tinyWorkload, 5), digest(tinyWorkload, 5), digest(tinyWorkload, 6)
	if a != b {
		t.Fatalf("seed 5 generated twice: digests %s and %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 5 and 6 generated the same inputs (%s)", a)
	}
}

func TestWindowsAreDistinctAndFull(t *testing.T) {
	in, err := generate(tinyWorkload, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, o := range in.offers {
		seen[o.ID] = true
	}
	sets := map[string]bool{}
	for _, win := range in.windows {
		ids := map[int64]bool{}
		for _, id := range win {
			if !seen[id] || ids[id] {
				t.Fatalf("window %v repeats an ID or names an unknown offer", win)
			}
			ids[id] = true
		}
		if len(win) != windowSize {
			t.Fatalf("window of %d IDs, want %d", len(win), windowSize)
		}
		key := fmt.Sprint(slices.Sorted(slices.Values(win)))
		if sets[key] {
			t.Fatalf("window %v repeats", win)
		}
		sets[key] = true
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 9 {
		t.Error("helpers reordered their input")
	}
}

// TestQuartilesMatchPythonStatistics pins quartiles to the values of
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 7.0, 1.0}, 1.0, 7.0},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
