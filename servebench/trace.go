package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call: a phase, an HTTP request, or a layer call
// replayed on the benchmark's own index. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root
	// Req ties a span to the request it belongs to: an HTTP request's
	// own operation number, or for a replayed layer call the number of
	// the request whose batch or window it replays (0 = none).
	Req int64 `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay no tracing cost. It is used
// from the client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// write stores the spans as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
