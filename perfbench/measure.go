package main

import (
	"crypto/sha256"
	"hash"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// durations is a sample of latencies.
type durations []time.Duration

// pct returns the p-th percentile (0 <= p <= 1) in milliseconds,
// interpolating linearly between the two nearest samples, or 0 for an
// empty sample.
func (d durations) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return ms(s[len(s)-1])
	}
	return ms(s[i]) + (pos-float64(i))*(ms(s[i+1])-ms(s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timings collects named latency samples from several goroutines.
type timings struct {
	mu sync.Mutex
	m  map[string]durations
}

func newTimings() *timings { return &timings{m: map[string]durations{}} }

func (t *timings) add(name string, d time.Duration) {
	t.mu.Lock()
	t.m[name] = append(t.m[name], d)
	t.mu.Unlock()
}

func (t *timings) get(name string) durations {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[name]
}

// hashSink is the caller's image sink: it hashes every byte it receives
// and, when traced, notes when the first one arrived.
type hashSink struct {
	h      hash.Hash
	n      int64
	traced bool
	first  time.Time
}

func newHashSink(traced bool) *hashSink { return &hashSink{h: sha256.New(), traced: traced} }

func (s *hashSink) reset() {
	s.h.Reset()
	s.n = 0
	s.first = time.Time{}
}

func (s *hashSink) Write(p []byte) (int, error) {
	if s.traced && s.n == 0 && len(p) > 0 {
		s.first = time.Now()
	}
	s.h.Write(p)
	s.n += int64(len(p))
	return len(p), nil
}

func (s *hashSink) sum() (d [32]byte) {
	copy(d[:], s.h.Sum(nil))
	return d
}

// span is one traced interval. Times are nanoseconds since the traced
// phase began; Parent indexes the op's root span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs take no timestamps beyond each op's own.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// opSpans accumulates one op's spans on the client goroutine and hands
// them to the tracer in one batch.
type opSpans struct {
	tr    *tracer
	op    int64
	spans []span
}

func (tr *tracer) begin(op int64, name string, start time.Time) *opSpans {
	if tr == nil {
		return nil
	}
	return &opSpans{tr: tr, op: op, spans: []span{{Name: name, Op: op, Parent: -1, Start: int64(start.Sub(tr.epoch))}}}
}

// child records a seam call inside the op.
func (o *opSpans) child(name string, start, end time.Time) {
	if o == nil || start.IsZero() {
		return
	}
	o.spans = append(o.spans, span{Name: name, Op: o.op, Parent: 0, Start: int64(start.Sub(o.tr.epoch)), End: int64(end.Sub(o.tr.epoch))})
}

func (o *opSpans) end(end time.Time) {
	if o == nil {
		return
	}
	o.spans[0].End = int64(end.Sub(o.tr.epoch))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.spans...)
	o.tr.mu.Unlock()
}

// selfTimes returns each span name's self time — its duration minus the
// part its children cover — summed over the trace, in milliseconds.
func selfTimes(spans []span) map[string]float64 {
	out := map[string]float64{}
	byOp := map[int64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, ss := range byOp {
		for _, s := range ss {
			self := s.End - s.Start
			if s.Parent < 0 {
				self -= covered(ss, s)
			}
			out[s.Name] += float64(self) / 1e6
		}
	}
	return out
}

// covered is the length of the union of root's children's intervals,
// clipped to the root.
func covered(ss []span, root span) int64 {
	var iv [][2]int64
	for _, s := range ss {
		if s.Parent >= 0 {
			iv = append(iv, [2]int64{max(s.Start, root.Start), min(s.End, root.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, root.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// handlerTimer is middleware around the server that times each handler
// by route and splits image retrieval at its first body byte.
type handlerTimer struct {
	next http.Handler
	t    *timings
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	fw := &firstByteWriter{ResponseWriter: w}
	h.next.ServeHTTP(fw, r)
	end := time.Now()
	rt := route(r)
	h.t.add("server."+rt, end.Sub(start))
	if rt == "retrieve" && !fw.first.IsZero() {
		h.t.add("core.retrieve.assemble", fw.first.Sub(start))
		h.t.add("core.retrieve.stream", end.Sub(fw.first))
	}
}

func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/images/"):
		return "retrieve"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/images":
		return "publish"
	case r.Method == http.MethodDelete:
		return "remove"
	case r.URL.Path == "/v1/sync":
		return "sync"
	}
	return "other"
}

type firstByteWriter struct {
	http.ResponseWriter
	first time.Time
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() && len(p) > 0 {
		w.first = time.Now()
	}
	return w.ResponseWriter.Write(p)
}

func (w *firstByteWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
