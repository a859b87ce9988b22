package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"offloadnn/internal/exec"
)

// Tracing wraps each layer's public entry points from outside: HTTP
// middleware around the serving handlers, a RoundTripper that carries
// the caller's span across hops, and an exec.Backend decorator. Spans
// stay in memory and are aggregated when the run ends.

// parentHeader carries the calling span's ID across an HTTP hop.
const parentHeader = "X-Perfbench-Parent"

type span struct {
	id, parent  uint64
	layer, node string
	start, end  time.Time
	status      int
	batch       int    // exec.infer: served batch size
	bytes       int64  // HTTP spans: request body length
	epoch       uint64 // exec.install: epoch being installed
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []*span
}

// begin opens a span; a nil tracer records nothing.
func (t *tracer) begin(layer, node string, parent uint64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{id: t.next, parent: parent, layer: layer, node: node}
	t.mu.Unlock()
	s.start = time.Now()
	return s
}

func (t *tracer) end(s *span, status int) {
	if t == nil || s == nil {
		return
	}
	s.end = time.Now()
	s.status = status
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

type spanKey struct{}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps h so that requests to the given paths record a span of
// the mapped layer, parented on the caller's span header.
func (t *tracer) handler(node string, layers map[string]string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer, ok := layers[r.URL.Path]
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		s := t.begin(layer, node, parent)
		s.bytes = r.ContentLength
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.id)))
		t.end(s, sw.status)
	})
}

// transport stamps the span of the request's context onto outgoing
// requests, so the next hop's handler span is parented on it.
type transport struct{ base http.RoundTripper }

func (tp transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := spanOf(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	}
	return tp.base.RoundTrip(r)
}

// tracedBackend times Install and Infer of the wrapped backend.
type tracedBackend struct {
	exec.Backend
	tr   *tracer
	node string
}

func (b tracedBackend) Infer(ctx context.Context, req exec.Request) (exec.Output, error) {
	s := b.tr.begin("exec.infer", b.node, spanOf(ctx))
	out, err := b.Backend.Infer(ctx, req)
	s.batch = out.BatchSize
	b.tr.end(s, errStatus(err))
	return out, err
}

func (b tracedBackend) Install(plan *exec.Plan) error {
	s := b.tr.begin("exec.install", b.node, 0)
	s.epoch = plan.Epoch
	err := b.Backend.Install(plan)
	b.tr.end(s, errStatus(err))
	return err
}

func errStatus(err error) int {
	if err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// wrapBackend decorates be when tracing; the untraced stack serves the
// backend itself.
func wrapBackend(be exec.Backend, tr *tracer, node string) exec.Backend {
	if tr == nil {
		return be
	}
	return tracedBackend{Backend: be, tr: tr, node: node}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []*span) map[uint64]time.Duration {
	children := make(map[uint64][]*span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		covered := time.Duration(0)
		var lo, hi time.Time // the merged interval being extended
		for _, k := range kids {
			a, b := k.start, k.end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if !b.After(a) {
				continue
			}
			if !hi.IsZero() && !a.After(hi) {
				if b.After(hi) {
					hi = b
				}
				continue
			}
			covered += hi.Sub(lo)
			lo, hi = a, b
		}
		covered += hi.Sub(lo)
		self[s.id] = s.dur() - covered
	}
	return self
}
