package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/core"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/synth"
	"wdcproducts/internal/xrand"
)

// batchSize is the number of offers in one POST /v1/offers, and also the
// daemon's BatchSize: each request is exactly one applied batch, so
// batch boundaries never depend on the flush timer.
const batchSize = 64

// windowSize is the number of offer IDs in one POST /v1/candidates.
const windowSize = 16

// knnK is the neighbour budget of the kNN blocker, as in wdcserve.
const knnK = 6

// fixedInputSeed roots the §3 build every workload grows from, and all
// the inputs of a workload whose inputs must not depend on --seed (see
// workload.fixedInputs).
const fixedInputSeed = 20240318

// workload is one traffic mix. Each field is a property of the inputs
// or of the phase sizes; nothing here is read by the daemon except the
// blocker the workload builds.
type workload struct {
	name string
	// target is the size of the grown corpus: the seed offers the
	// daemon starts with plus the held-out tail it ingests.
	target int
	// batches is the number of held-out batches streamed through
	// POST /v1/offers; the tail is batches*batchSize offers.
	batches int
	// matchPerSecond and windowsPerSecond size the read phases: a run of
	// --seconds s issues seconds*matchPerSecond match requests and
	// seconds*windowsPerSecond candidates requests. The counts are fixed
	// rather than timed so that every run attempts the same operations.
	matchPerSecond, windowsPerSecond int
	// checkStride samples every checkStride-th seed offer into the
	// check phase, on top of every ingested offer.
	checkStride int
	// pcFloor is the lowest acceptable pair completeness of the served
	// partners over the check sample (see README.md for its origin).
	pcFloor float64
	// setups is the number of times set-up runs; setup_s is the median.
	setups int
	// ivf selects the IVF kNN blocker restarted from a snapshot; false
	// selects MinHash with AutoBand built from scratch.
	ivf bool
	// fixedInputs roots the corpus, the stream, the windows and the
	// check sample at fixedInputSeed instead of --seed; --seed then only
	// picks the match-phase IDs and the order of the windows. A workload
	// whose known fault fails operations needs it, so that the failed
	// share is the same whatever the seed.
	fixedInputs bool
}

var workloads = map[string]workload{
	"minhash-read": {
		name:             "minhash-read",
		target:           50000,
		batches:          272,
		matchPerSecond:   5000,
		windowsPerSecond: 20,
		checkStride:      16,
		pcFloor:          0.25,
		setups:           3,
	},
	"ivf-ingest": {
		name:             "ivf-ingest",
		target:           10000,
		batches:          64,
		matchPerSecond:   10000,
		windowsPerSecond: 50,
		checkStride:      8,
		pcFloor:          0.20,
		setups:           9,
		ivf:              true,
		fixedInputs:      true,
	},
}

// inputs are everything a run sends to the daemon, generated from the
// seed before the daemon exists.
type inputs struct {
	// offers is the final corpus: the seed prefix the daemon starts
	// with, then the held-out tail in stream order.
	offers []schemaorg.Offer
	// seedN is the length of the seed prefix.
	seedN int
	// matchIDs are the match-phase requests, in order.
	matchIDs []int64
	// windows are the candidates-phase requests, in order; no two are
	// equal as sets.
	windows [][]int64
	// checkIDs are the offers whose served partners the check phase
	// compares with the from-scratch build: every ingested offer plus a
	// stride sample of the seed offers.
	checkIDs []int64
	// cluster maps every offer ID to its generator cluster label, and
	// members maps every label to the IDs carrying it.
	cluster map[int64]int64
	members map[int64][]int64
}

// seedOffers returns the prefix the daemon starts with.
func (in *inputs) seedOffers() []schemaorg.Offer { return in.offers[:in.seedN] }

// batch returns the b-th held-out batch.
func (in *inputs) batch(b int) []schemaorg.Offer {
	lo := in.seedN + b*batchSize
	return in.offers[lo : lo+batchSize]
}

// generate builds a workload's inputs: a fixed tiny §3 build, grown
// with synth.Grow to the target size, the tail held back for ingest, and the
// read-phase requests.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	dataSeed := seed
	if w.fixedInputs {
		dataSeed = fixedInputSeed
	}
	// The §3 build is the same for every seed: its cluster sizes alone
	// moved the 50k corpus's candidate pair count by 75% between seeds,
	// against 1.5% for the synth.Grow seed.
	b, err := core.Build(core.TinyBuildConfig(fixedInputSeed))
	if err != nil {
		return nil, fmt.Errorf("tiny build: %w", err)
	}
	c, err := synth.Grow(b.Offers, synth.ScaleConfig(w.target, dataSeed))
	if err != nil {
		return nil, fmt.Errorf("grow: %w", err)
	}
	tail := w.batches * batchSize
	if tail >= len(c.Offers) || len(c.Offers)-tail < 1 {
		return nil, fmt.Errorf("corpus of %d offers cannot hold back %d", len(c.Offers), tail)
	}
	in := &inputs{offers: c.Offers, seedN: len(c.Offers) - tail,
		cluster: make(map[int64]int64, len(c.Offers)), members: map[int64][]int64{}}
	for _, o := range in.offers {
		in.cluster[o.ID] = o.ClusterID
		in.members[o.ClusterID] = append(in.members[o.ClusterID], o.ID)
	}

	data := xrand.New(dataSeed)
	in.windows = makeWindows(in.offers, in.members, seconds*w.windowsPerSecond, data.Stream("windows"))
	for i := in.seedN; i < len(in.offers); i++ {
		in.checkIDs = append(in.checkIDs, in.offers[i].ID)
	}
	for i := 0; i < in.seedN; i += w.checkStride {
		in.checkIDs = append(in.checkIDs, in.offers[i].ID)
	}

	reads := xrand.New(seed)
	rng := reads.Stream("match")
	in.matchIDs = make([]int64, seconds*w.matchPerSecond)
	for i := range in.matchIDs {
		in.matchIDs[i] = in.offers[rng.Intn(len(in.offers))].ID
	}
	order := reads.Stream("window-order")
	order.Shuffle(len(in.windows), func(i, j int) { in.windows[i], in.windows[j] = in.windows[j], in.windows[i] })
	return in, nil
}

// makeWindows draws n distinct 16-ID windows. Each window is an anchor
// offer, up to half a window of the anchor's cluster mates (from the
// generator's labels, so the answer is rarely empty), and random offers
// for the rest. Distinct windows keep the index's query memo out of the
// measurement.
func makeWindows(offers []schemaorg.Offer, members map[int64][]int64, n int, rng *rand.Rand) [][]int64 {
	seen := map[string]bool{}
	out := make([][]int64, 0, n)
	for len(out) < n {
		anchor := offers[rng.Intn(len(offers))]
		win := []int64{anchor.ID}
		in := map[int64]bool{anchor.ID: true}
		mates := members[anchor.ClusterID]
		for _, k := range rng.Perm(len(mates)) {
			if len(win) == windowSize/2 {
				break
			}
			if id := mates[k]; !in[id] {
				in[id] = true
				win = append(win, id)
			}
		}
		for len(win) < windowSize {
			if id := offers[rng.Intn(len(offers))].ID; !in[id] {
				in[id] = true
				win = append(win, id)
			}
		}
		key := append([]int64(nil), win...)
		slices.Sort(key)
		k := fmt.Sprint(key)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, win)
	}
	return out
}

// digest fingerprints the inputs: the corpus (IDs, titles, labels), the
// seed/tail split and every request list.
func (in *inputs) digest() string {
	h := sha256.New()
	word := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	word(int64(in.seedN))
	for _, o := range in.offers {
		word(o.ID)
		word(o.ClusterID)
		h.Write([]byte(o.Title))
		h.Write([]byte{0})
	}
	for _, ids := range [][]int64{in.matchIDs, in.checkIDs} {
		word(int64(len(ids)))
		for _, id := range ids {
			word(id)
		}
	}
	for _, win := range in.windows {
		word(int64(len(win)))
		for _, id := range win {
			word(id)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// newBlocker returns the workload's blocking engine: IVF (f32) over an
// embedding model trained on the seed offers' titles — the stream is
// unseen by the encoder — or MinHash with the scale-aware AutoBand.
func newBlocker(w workload, in *inputs) blocking.IndexedBlocker {
	if !w.ivf {
		return &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 48, Rows: 2, AutoBand: true}, Seed: 1}
	}
	return blocking.NewIVFBlocker(trainModel(in.seedOffers(), len(in.seedOffers())), knnK)
}

// trainModel trains the title encoder on the first n offers' titles.
func trainModel(offers []schemaorg.Offer, n int) *embed.Model {
	titles := make([]string, min(n, len(offers)))
	for i := range titles {
		titles[i] = offers[i].Title
	}
	return embed.Train(titles, embed.DefaultConfig(), xrand.New(1).Stream("embed"))
}
