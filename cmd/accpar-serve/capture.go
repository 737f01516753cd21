package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"accpar/internal/diag"
	"accpar/internal/obs"
)

// maxRequestTraceEvents bounds each request's scoped trace, so a
// pathological request cannot grow its capture without limit; the
// overflow is counted in the capture's dropped_events.
const maxRequestTraceEvents = 1 << 14

// capture collects what a handler learns about its request beyond the
// trace — the caller's tag, a workload summary and the search audit —
// for the flight-recorder entry written when the request completes.
type capture struct {
	mu      sync.Mutex
	tag     string
	request string
	audit   json.RawMessage
}

type captureKey struct{}

// captureFrom returns the request's capture; nil (whose methods are
// no-ops) when the handler runs outside record, as in direct tests.
func captureFrom(ctx context.Context) *capture {
	c, _ := ctx.Value(captureKey{}).(*capture)
	return c
}

// note records the request's tag and workload summary.
func (c *capture) note(tag, summary string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.tag, c.request = tag, summary
	c.mu.Unlock()
}

// noteAudit records the request's search-audit report.
func (c *capture) noteAudit(raw json.RawMessage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.audit = raw
	c.mu.Unlock()
}

// record runs each executed request under its own bounded scoped tracer
// and capture, then offers the finished request to the flight recorder.
// When the recorder keeps it, the endpoint's latency histogram gets the
// capture id as its exemplar, linking /metrics to /debug/slowest/{id}.
func (s *server) record(endpoint string, m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewBoundedTracer(maxRequestTraceEvents)
		c := &capture{}
		ctx := obs.WithTracer(context.WithValue(r.Context(), captureKey{}, c), tr)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		d := time.Since(start)
		c.mu.Lock()
		offered := diag.Capture{
			Endpoint:        endpoint,
			Status:          sw.code,
			Start:           start,
			DurationSeconds: d.Seconds(),
			Tag:             c.tag,
			Request:         c.request,
			DroppedEvents:   tr.Dropped(),
			TraceEvents:     tr.Events(),
			Audit:           c.audit,
		}
		c.mu.Unlock()
		if id, kept := s.flight.Offer(offered); kept {
			m.timer.SetExemplar(id, d)
		}
	}
}
