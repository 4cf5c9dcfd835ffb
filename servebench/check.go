package main

import (
	"cmp"
	"slices"
)

// diffIDs compares a served partner list with the from-scratch build's,
// both sorted: extra are served partners the build does not have,
// missing are the build's partners the daemon did not serve.
func diffIDs(got, want []int64) (extra, missing int) {
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i] == want[j]:
			i++
			j++
		case got[i] < want[j]:
			extra++
			i++
		default:
			missing++
			j++
		}
	}
	return extra + len(got) - i, missing + len(want) - j
}

// subsetHolds checks the subset-query guarantee for one window: the
// candidates answer must be exactly the pairs of window members that
// the members' own match answers name, as sorted (low, high) pairs.
func subsetHolds(window []int64, got [][2]int64, partners map[int64][]int64) bool {
	in := make(map[int64]bool, len(window))
	for _, id := range window {
		in[id] = true
	}
	var want [][2]int64
	for _, a := range window {
		for _, b := range partners[a] {
			if in[b] && a != b {
				want = append(want, [2]int64{min(a, b), max(a, b)})
			}
		}
	}
	slices.SortFunc(want, func(x, y [2]int64) int {
		if x[0] != y[0] {
			return cmp.Compare(x[0], y[0])
		}
		return cmp.Compare(x[1], y[1])
	})
	want = slices.Compact(want)
	return slices.Equal(got, want)
}

// pairCompleteness is the share of true matching pairs, by the
// generator's cluster labels, that the served partners cover: over every
// checked offer a and every other member b of a's cluster, the fraction
// with b among a's partners. It is 1 when no checked offer has a mate.
func pairCompleteness(ids []int64, partners map[int64][]int64, cluster map[int64]int64, members map[int64][]int64) float64 {
	total, found := 0, 0
	for _, a := range ids {
		ps := partners[a]
		for _, b := range members[cluster[a]] {
			if b == a {
				continue
			}
			total++
			if _, ok := slices.BinarySearch(ps, b); ok {
				found++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(found) / float64(total)
}
