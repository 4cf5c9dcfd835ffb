package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve"
)

// pollInterval is the shortest sleep between visibility polls. The
// client sleeps rather than spins so that polling leaves the cores to the
// applier, and sleeps a hundredth of the time waited so far when that is
// longer, which bounds both the polls per batch and the overstatement of
// visible_p50_ms to about 1%.
const pollInterval = 100 * time.Microsecond

// visibleTimeout bounds the wait for one batch to become visible.
const visibleTimeout = 60 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's state: its inputs, the operation tally, and the
// figures each phase leaves for the report.
type runner struct {
	w    workload
	in   *inputs
	tr   *tracer // nil in untraced runs
	log  io.Writer
	work string // scratch directory inside the checkout
	snap string // snapshot directory of the ivf workload's daemon
	bl   blocking.IndexedBlocker

	attempted, failed int
	problems          []string // broken invariants; any makes correct false
	reqs              int64

	// Request numbers of the daemon's requests, so replayed layer calls
	// can name the request whose batch or window they repeat.
	postReq, windowReq []int64
	windowPairs        [][][2]int64

	e2e, layer map[string]metric
}

// op counts one operation and whether it succeeded.
func (r *runner) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// problem records a broken invariant.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.log, "problem:", msg)
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, r.w.name+": "+format+"\n", args...)
}

// daemonConfig is the served configuration: exactly one applied batch
// per POST (BatchSize equals the request size, and the flush timer is
// too long to fire), snapshots for the ivf workload.
func (r *runner) daemonConfig(offers []schemaorg.Offer, snapshotDir string) serve.Config {
	return serve.Config{
		Blocker:    r.bl,
		Offers:     offers,
		Index:      blocking.IndexOptions{SnapshotDir: snapshotDir},
		BatchSize:  batchSize,
		FlushEvery: time.Hour,
	}
}

// execute runs the phases in order: preparation (untimed), set-up,
// ingest, match, candidates, check; then, when traced, the layer
// replays.
func (r *runner) execute(seconds int) error {
	r.e2e, r.layer = map[string]metric{}, map[string]metric{}
	r.bl = newBlocker(r.w, r.in)
	if r.w.ivf {
		if err := r.prepareSnapshot(); err != nil {
			return err
		}
	}
	d, err := r.setUp()
	if err != nil {
		return err
	}
	d.s.Start()
	c := newClient(d.base, r.tr, &r.reqs)
	r.ingest(c, d)
	r.reads(c, seconds)
	if err := r.checkPhase(c, d); err != nil {
		return err
	}
	c.closeIdle()
	if err := d.shutdown(); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	if r.tr == nil {
		return nil
	}
	if err := r.replayServe(); err != nil {
		return err
	}
	if err := r.replayBlocking(); err != nil {
		return err
	}
	r.replayEngines()
	return nil
}

// prepareSnapshot is the ivf workload's untimed preparation: a daemon
// built over the seed offers and shut down, which leaves a trusted
// snapshot for set-up to restart from.
func (r *runner) prepareSnapshot() error {
	r.snap = filepath.Join(r.work, "snapshots")
	s, err := serve.New(r.daemonConfig(r.in.seedOffers(), r.snap))
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	return nil
}

// heapBytes forces a collection and returns the live heap.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setUp starts the daemon w.setups times, timing each from serve.New
// until its first request is answered, and keeps the first. The live
// heap is read around that first set-up, after forced collections, so
// the benchmark's own inputs cancel out; the later set-ups, which exist
// only to be timed, run after the reading and are stopped at once.
func (r *runner) setUp() (*daemon, error) {
	phase := r.tr.begin("phase.setup", 0, 0)
	defer r.tr.end(phase)
	var samples []float64
	var kept *daemon
	var heap int64
	heap0 := heapBytes()
	for i := 0; i < r.w.setups; i++ {
		if i > 0 {
			runtime.GC()
		}
		sp := r.tr.begin("setup", phase, 0)
		start := time.Now()
		s, err := serve.New(r.daemonConfig(r.in.seedOffers(), r.snap))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, err := listen(s)
		if err != nil {
			return nil, err
		}
		c := newClient(d.base, r.tr, &r.reqs)
		rep, err := c.match("http.match", r.in.offers[0].ID, sp)
		elapsed := time.Since(start)
		r.tr.end(sp)
		c.closeIdle()
		r.op(err == nil && rep.status == http.StatusOK)
		samples = append(samples, elapsed.Seconds())
		if r.w.ivf && !s.OpenStats().Loaded {
			r.problem("set-up %d did not load the prepared snapshot: %v", i, s.OpenStats().LoadErr)
		}
		if i == 0 {
			kept, heap = d, int64(heapBytes())-int64(heap0)
			continue
		}
		// Never started, so the listener is all there is to stop.
		if err := d.close(); err != nil {
			return nil, err
		}
	}
	r.e2e["setup_s"] = metric{median(samples), "s"}
	r.e2e["heap_mb"] = metric{float64(heap) / (1 << 20), "MB"}
	r.logf("set-up %.3f s (median of %d: %.3f), heap %.1f MB, %d offers", median(samples), len(samples), samples, float64(heap)/(1<<20), r.in.seedN)
	return kept, nil
}

// ingest streams the held-out tail, one batch per POST /v1/offers, and
// waits for each batch's last offer to answer /v1/match before sending
// the next. The POST and the wait count as one operation each.
func (r *runner) ingest(c *client, d *daemon) {
	bodies := make([][]byte, r.w.batches)
	for b := range bodies {
		bodies[b], _ = json.Marshal(map[string][]schemaorg.Offer{"offers": r.in.batch(b)})
	}
	runtime.GC()
	phase := r.tr.begin("phase.ingest", 0, 0)
	var visible []time.Duration
	start := time.Now()
	for b, body := range bodies {
		t0 := time.Now()
		rep, err := c.do("http.offers", http.MethodPost, "/v1/offers", body, phase)
		r.postReq = append(r.postReq, rep.req)
		var ack struct {
			Accepted int `json:"accepted"`
		}
		posted := err == nil && rep.status == http.StatusAccepted && json.Unmarshal(rep.body, &ack) == nil && ack.Accepted == batchSize
		r.op(posted)

		sp := r.tr.begin("visible", phase, rep.req)
		last := r.in.batch(b)[batchSize-1].ID
		seen := false
		for posted && time.Since(t0) < visibleTimeout {
			rep, err := c.match("http.match.poll", last, sp)
			if err != nil || rep.status != http.StatusNotFound {
				seen = err == nil && rep.status == http.StatusOK
				break
			}
			time.Sleep(max(pollInterval, time.Since(t0)/100))
		}
		visible = append(visible, time.Since(t0))
		r.tr.end(sp)
		r.op(seen)
	}
	elapsed := time.Since(start)
	r.tr.end(phase)

	st := d.s.Stats()
	tail := r.w.batches * batchSize
	if st.Applied != int64(tail) || st.Epoch != int64(r.w.batches) || st.Rejected != 0 || st.DeadLettered != 0 {
		r.problem("after ingest: applied %d of %d offers at epoch %d (want %d), %d rejected, %d dead-lettered",
			st.Applied, tail, st.Epoch, r.w.batches, st.Rejected, st.DeadLettered)
	}
	vis := durations(visible, time.Millisecond)
	r.e2e["visible_p50_ms"] = metric{median(vis), "ms"}
	r.e2e["ingest_offers_per_s"] = metric{float64(tail) / elapsed.Seconds(), "1/s"}
	r.layer["serve.layers"] = metric{float64(st.Layers), "count"}
	r.layer["serve.compactions"] = metric{float64(st.Compactions), "count"}
	r.layer["serve.base_pairs"] = metric{float64(st.BasePairs), "count"}
	r.logf("ingest %d batches in %.2fs: visible p50 %.3f ms, p90 %.3f ms (n=%d); %d layers, %d compactions, %d base pairs",
		r.w.batches, elapsed.Seconds(), median(vis), percentile(vis, 90), len(vis), st.Layers, st.Compactions, st.BasePairs)
}

// reads runs the match and candidates phases in alternating rounds,
// four per second of --seconds, keeping the candidates answers for the
// subset check. On a shared host the same requests run tens of percent
// faster or slower from one fraction of a second to the next; spreading
// each phase over the whole read period makes its median sample all of
// that drift rather than one stretch of it.
func (r *runner) reads(c *client, seconds int) {
	var match, cands []time.Duration
	empty := 0
	nm, nw, rounds := len(r.in.matchIDs), len(r.in.windows), 4*seconds
	runtime.GC()
	for round := 0; round < rounds; round++ {
		phase := r.tr.begin("phase.match", 0, 0)
		for _, id := range r.in.matchIDs[round*nm/rounds : (round+1)*nm/rounds] {
			rep, err := c.match("http.match", id, phase)
			r.op(err == nil && rep.status == http.StatusOK)
			match = append(match, rep.latency)
		}
		r.tr.end(phase)

		phase = r.tr.begin("phase.candidates", 0, 0)
		for _, win := range r.in.windows[round*nw/rounds : (round+1)*nw/rounds] {
			body, _ := json.Marshal(map[string][]int64{"ids": win})
			rep, err := c.do("http.candidates", http.MethodPost, "/v1/candidates", body, phase)
			var ans struct {
				Pairs [][2]int64 `json:"pairs"`
			}
			ok := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &ans) == nil
			r.op(ok)
			if ok && len(ans.Pairs) == 0 {
				empty++
			}
			cands = append(cands, rep.latency)
			r.windowReq = append(r.windowReq, rep.req)
			r.windowPairs = append(r.windowPairs, ans.Pairs)
		}
		r.tr.end(phase)
	}
	us := durations(match, time.Microsecond)
	r.e2e["match_p50_us"] = metric{median(us), "us"}
	r.logf("match: p50 %.1f us, p99 %.1f us, p99.9 %.1f us (n=%d)", median(us), percentile(us, 99), percentile(us, 99.9), len(us))
	ms := durations(cands, time.Millisecond)
	r.e2e["candidates_p50_ms"] = metric{median(ms), "ms"}
	r.logf("candidates: p50 %.3f ms, p90 %.3f ms (n=%d, %d empty answers)", median(ms), percentile(ms, 90), len(ms), empty)
}

// checkPhase compares the daemon's answers with a from-scratch serve.New
// over the same final offers, checks the subset-query guarantee on every
// window, and checks pair completeness against the generator's labels.
func (r *runner) checkPhase(c *client, d *daemon) error {
	runtime.GC()
	ref, err := serve.New(r.daemonConfig(r.in.offers, ""))
	if err != nil {
		return fmt.Errorf("from-scratch build: %w", err)
	}
	phase := r.tr.begin("phase.check", 0, 0)
	defer r.tr.end(phase)
	ctx := context.Background()
	answers := make(map[int64][]int64, len(r.in.checkIDs))
	fetch := func(id int64) bool {
		rep, err := c.match("http.match", id, phase)
		var ans struct {
			Partners []int64 `json:"partners"`
		}
		ok := err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &ans) == nil
		r.op(ok)
		if ok {
			answers[id] = ans.Partners
		}
		return ok
	}

	stale, extra, missing := 0, 0, 0
	refAnswers := make(map[int64][]int64, len(r.in.checkIDs))
	for _, id := range r.in.checkIDs {
		want, _, qerr := ref.Match(ctx, id)
		if qerr != nil {
			return fmt.Errorf("from-scratch match %d: %v", id, qerr)
		}
		refAnswers[id] = want
		if !fetch(id) {
			continue
		}
		e, m := diffIDs(answers[id], want)
		extra += e
		missing += m
		if e+m > 0 {
			stale++
		}
		r.op(e+m == 0)
	}
	r.logf("check vs from-scratch build: %d of %d offers differ (%d extra partners, %d missing)",
		stale, len(r.in.checkIDs), extra, missing)

	broken := 0
	for i, win := range r.in.windows {
		ok := true
		for _, id := range win {
			if _, have := answers[id]; !have && !fetch(id) {
				ok = false
			}
		}
		ok = ok && subsetHolds(win, r.windowPairs[i], answers)
		if !ok {
			broken++
		}
		r.op(ok)
	}
	r.logf("check subset guarantee: %d of %d windows differ from their members' match answers", broken, len(r.in.windows))

	pc := pairCompleteness(r.in.checkIDs, answers, r.in.cluster, r.in.members)
	r.op(pc >= r.w.pcFloor)
	r.logf("check pair completeness %.4f over %d offers (floor %.2f; the from-scratch build's is %.4f)",
		pc, len(r.in.checkIDs), r.w.pcFloor, pairCompleteness(r.in.checkIDs, refAnswers, r.in.cluster, r.in.members))

	if st := d.s.Stats(); st.Timeouts != 0 || st.Epoch != int64(r.w.batches) {
		r.problem("after reads: %d timeouts, epoch %d (want %d)", st.Timeouts, st.Epoch, r.w.batches)
	}
	return nil
}

// report assembles the result line: end-to-end metrics when untraced,
// per-layer metrics when traced.
func (r *runner) report() result {
	m := r.e2e
	if r.tr != nil {
		m = r.layer
	}
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

// writeSpans stores the traced run's spans under the build directory.
func (r *runner) writeSpans(seed int64) (string, error) {
	path := filepath.Join(filepath.Dir(r.work), "trace", fmt.Sprintf("%s-seed%d.json", r.w.name, seed))
	return path, r.tr.write(path)
}

// removeWork deletes the run's scratch directory.
func (r *runner) removeWork() {
	if err := os.RemoveAll(r.work); err != nil {
		fmt.Fprintln(r.log, "warning: removing scratch directory:", err)
	}
}
