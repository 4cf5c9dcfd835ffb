package main

// The traced run's layer replays: the calls the daemon made through each
// layer, repeated on a server and an index the benchmark builds itself,
// with the same batches and windows, each call timed inside a span. The
// per-layer metrics come from here; the end-to-end ones never do.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/serve"
	"wdcproducts/internal/simlib"
	"wdcproducts/internal/xrand"
)

// engineSample is the number of distinct titles the per-title engine
// calls (encode, search, signature) are timed on.
const engineSample = 2000

// timed runs fn inside a span and returns its duration.
func (r *runner) timed(name string, parent int, req int64, fn func()) time.Duration {
	sp := r.tr.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.tr.end(sp)
	return d
}

// replayServe repeats the daemon's life in process: serve.New, every
// batch through Enqueue until Epoch advances, then Match and Candidates
// over the match IDs and windows the daemon was sent.
func (r *runner) replayServe() error {
	runtime.GC()
	phase := r.tr.begin("replay.serve", 0, 0)
	defer r.tr.end(phase)
	var s *serve.Server
	var err error
	newD := r.timed("serve.New", phase, 0, func() {
		s, err = serve.New(r.daemonConfig(r.in.seedOffers(), r.snap))
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	s.Start()
	var publish []time.Duration
	for b := 0; b < r.w.batches; b++ {
		e0 := s.Epoch()
		publish = append(publish, r.timed("serve.publish", phase, r.postReq[b], func() {
			if n, qerr := s.Enqueue(r.in.batch(b)); qerr != nil || n != batchSize {
				r.problem("replay enqueue of batch %d: accepted %d: %v", b, n, qerr)
				return
			}
			for start := time.Now(); s.Epoch() == e0; time.Sleep(pollInterval / 4) {
				if time.Since(start) > visibleTimeout {
					r.problem("replay batch %d never published", b)
					return
				}
			}
		}))
	}
	runtime.GC()
	ctx := context.Background()
	var match []time.Duration
	for _, id := range r.in.matchIDs {
		match = append(match, r.timed("serve.Match", phase, 0, func() {
			if _, _, qerr := s.Match(ctx, id); qerr != nil {
				r.problem("replay match %d: %v", id, qerr)
			}
		}))
	}
	var cands []time.Duration
	for i, win := range r.in.windows {
		cands = append(cands, r.timed("serve.Candidates", phase, r.windowReq[i], func() {
			if _, _, qerr := s.Candidates(ctx, win); qerr != nil {
				r.problem("replay candidates: %v", qerr)
			}
		}))
	}
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("replay shutdown: %w", err)
	}
	r.layer["serve.new_s"] = metric{newD.Seconds(), "s"}
	r.layer["serve.publish_ms"] = metric{median(durations(publish, time.Millisecond)), "ms"}
	r.layer["serve.match_us"] = metric{median(durations(match, time.Microsecond)), "us"}
	r.layer["serve.candidates_ms"] = metric{median(durations(cands, time.Millisecond)), "ms"}
	return nil
}

// replayBlocking repeats the index calls beneath the daemon on an index
// the benchmark opens itself: OpenIndex (a build, or the ivf workload's
// snapshot load), the full-universe query, SaveIndex, then per batch
// Add and the delta query, and finally the windows as subset queries.
func (r *runner) replayBlocking() error {
	runtime.GC()
	phase := r.tr.begin("replay.blocking", 0, 0)
	defer r.tr.end(phase)
	offers := r.in.offers
	seedIdxs := make([]int, r.in.seedN)
	for i := range seedIdxs {
		seedIdxs[i] = i
	}
	var ix blocking.Index
	var open blocking.OpenStats
	openD := r.timed("blocking.OpenIndex", phase, 0, func() {
		ix, open = blocking.OpenIndex(r.bl, offers, seedIdxs, blocking.IndexOptions{SnapshotDir: r.snap})
	})
	if r.w.ivf && !open.Loaded {
		r.problem("replay did not load the prepared snapshot: %v", open.LoadErr)
	}
	var full []blocking.CandidatePair
	var err error
	fullD := r.timed("blocking.QueryCandidates.full", phase, 0, func() {
		full, err = blocking.QueryCandidates(ix, seedIdxs)
	})
	if err != nil {
		return fmt.Errorf("replay full query: %w", err)
	}
	var path string
	saveD := r.timed("blocking.SaveIndex", phase, 0, func() {
		path, err = blocking.SaveIndex(r.bl, ix, offers, seedIdxs, blocking.IndexOptions{SnapshotDir: filepath.Join(r.work, "replay-save")})
	})
	if err != nil {
		return fmt.Errorf("replay save: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("replay save: %w", err)
	}

	var add, delta []time.Duration
	var deltaPairs []float64
	for b := 0; b < r.w.batches; b++ {
		newIdxs := make([]int, batchSize)
		for i := range newIdxs {
			newIdxs[i] = r.in.seedN + b*batchSize + i
		}
		add = append(add, r.timed("blocking.Index.Add", phase, r.postReq[b], func() { ix.Add(offers, newIdxs) }))
		var d []blocking.CandidatePair
		delta = append(delta, r.timed("blocking.QueryDeltaCandidates", phase, r.postReq[b], func() {
			d, err = blocking.QueryDeltaCandidates(ix, newIdxs)
		}))
		if err != nil {
			return fmt.Errorf("replay delta query: %w", err)
		}
		deltaPairs = append(deltaPairs, float64(len(d)))
	}

	idxOf := make(map[int64]int, len(offers))
	for i := range offers {
		idxOf[offers[i].ID] = i
	}
	var subset []time.Duration
	for i, win := range r.in.windows {
		q := make([]int, len(win))
		for k, id := range win {
			q[k] = idxOf[id]
		}
		subset = append(subset, r.timed("blocking.QueryCandidates.subset", phase, r.windowReq[i], func() {
			_, err = blocking.QueryCandidates(ix, q)
		}))
		if err != nil {
			return fmt.Errorf("replay subset query: %w", err)
		}
	}
	r.layer["blocking.open_s"] = metric{openD.Seconds(), "s"}
	r.layer["blocking.full_query_s"] = metric{fullD.Seconds(), "s"}
	r.layer["blocking.full_pairs"] = metric{float64(len(full)), "count"}
	r.layer["blocking.save_s"] = metric{saveD.Seconds(), "s"}
	r.layer["blocking.snapshot_mb"] = metric{float64(fi.Size()) / (1 << 20), "MB"}
	r.layer["blocking.add_ms"] = metric{median(durations(add, time.Millisecond)), "ms"}
	r.layer["blocking.delta_query_ms"] = metric{median(durations(delta, time.Millisecond)), "ms"}
	r.layer["blocking.delta_pairs"] = metric{median(deltaPairs), "count"}
	r.layer["blocking.subset_query_ms"] = metric{median(durations(subset, time.Millisecond)), "ms"}
	return nil
}

// replayEngines times the per-title engine calls on a sample of the
// seed offers' distinct titles: embed.Model.Encode, ivf.Index.Search for
// k+1 neighbours over every distinct title's encoding (the IVFIndex
// query), and lsh.Signer.Signature at the 16x4 banding's 64 hashes. The
// minhash-read workload has no encoder, so it trains one on the first
// 10k seed titles for this replay only.
func (r *runner) replayEngines() {
	runtime.GC()
	phase := r.tr.begin("replay.engines", 0, 0)
	defer r.tr.end(phase)
	var titles []string
	seen := map[string]bool{}
	for _, o := range r.in.seedOffers() {
		if !seen[o.Title] {
			seen[o.Title] = true
			titles = append(titles, o.Title)
		}
	}
	stride := max(1, len(titles)/engineSample)
	sampled := func(i int) bool { return i%stride == 0 }

	var model *embed.Model
	if ib, ok := r.bl.(*blocking.IVFBlocker); ok {
		model = ib.Model
	} else {
		model = trainModel(r.in.seedOffers(), 10000)
	}
	vecs := make([][]float32, len(titles))
	var encode []time.Duration
	for i, t := range titles {
		if !sampled(i) {
			vecs[i] = model.Encode(t)
			continue
		}
		encode = append(encode, r.timed("embed.Model.Encode", phase, 0, func() { vecs[i] = model.Encode(t) }))
	}
	ix := ivf.Build(vecs, ivf.DefaultConfig(), xrand.New(1).Stream("ivf-knn"))
	var search []time.Duration
	for i := range vecs {
		if sampled(i) {
			search = append(search, r.timed("ivf.Index.Search", phase, 0, func() { ix.Search(vecs[i], knnK+1) }))
		}
	}

	prep := simlib.NewPrepared()
	for _, t := range titles {
		prep.Intern(t)
	}
	signer := lsh.NewSigner(64, xrand.New(1).Stream("minhash-lsh"))
	dst := make([]uint64, signer.NumHashes())
	var sign []time.Duration
	for i := range titles {
		if sampled(i) {
			set := prep.TokenSet(i)
			sign = append(sign, r.timed("lsh.Signer.Signature", phase, 0, func() { dst = signer.Signature(set, dst) }))
		}
	}
	r.layer["embed.encode_us"] = metric{median(durations(encode, time.Microsecond)), "us"}
	r.layer["ivf.search_us"] = metric{median(durations(search, time.Microsecond)), "us"}
	r.layer["lsh.signature_us"] = metric{median(durations(sign, time.Microsecond)), "us"}
}
