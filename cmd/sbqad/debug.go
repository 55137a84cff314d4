package main

// Debug surface: the flight-recorder trace endpoints and the flag-gated
// pprof mount.
//
//	GET /v1/queries/{id}/trace   one query's full trace (spans + explain);
//	                             {id} is the numeric query ID or the
//	                             32-hex-digit W3C trace ID
//	GET /v1/debug/traces         the slow-query log: finished traces from the
//	                             ring, slowest first; ?min_ms= filters by
//	                             total duration, ?limit= caps the answer
//	GET /v1/debug/explain/{id}   just the allocation explain record — the
//	                             ranked per-provider score breakdown
//	GET /debug/pprof/            net/http/pprof, only with -debug-pprof
//
// Tracing is a boot-time option (-trace-sample, -trace-buffer); without a
// recorder these endpoints answer 404.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"sbqa"
)

// enablePprof mounts net/http/pprof under /debug/pprof/ when true (the
// -debug-pprof flag). Off by default: profiling endpoints expose heap and
// goroutine internals and do not belong on an open listener.
var enablePprof bool

// requireTracer resolves the engine's trace recorder, answering 404 when
// the daemon runs without tracing (and 503 while the engine restores).
func (g *gateway) requireTracer(w http.ResponseWriter) (*sbqa.TraceRecorder, bool) {
	eng, ok := g.requireEngine(w)
	if !ok {
		return nil, false
	}
	tr := eng.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled (start with -trace-sample)"))
		return nil, false
	}
	return tr, true
}

// traceLookup resolves {id} as a 32-hex W3C trace ID or a numeric query ID.
func traceLookup(tr *sbqa.TraceRecorder, id string) (sbqa.TraceView, bool) {
	if len(id) == 32 {
		return tr.TraceByID(id)
	}
	n, err := strconv.ParseInt(id, 10, 64)
	if err != nil {
		return sbqa.TraceView{}, false
	}
	return tr.TraceByQuery(sbqa.QueryID(n))
}

func (g *gateway) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := g.requireTracer(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	v, found := traceLookup(tr, id)
	if !found {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no trace for %q (unsampled, evicted from the ring, or never submitted)", id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (g *gateway) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	tr, ok := g.requireTracer(w)
	if !ok {
		return
	}
	var minNS int64
	if s := r.URL.Query().Get("min_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", s))
			return
		}
		minNS = int64(ms * 1e6)
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", s))
			return
		}
		limit = n
	}
	traces := tr.Slow(minNS, limit)
	if traces == nil {
		traces = []sbqa.TraceView{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(traces),
		"stats":  tr.StatsSnapshot(),
		"traces": traces,
	})
}

func (g *gateway) handleDebugExplain(w http.ResponseWriter, r *http.Request) {
	tr, ok := g.requireTracer(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	v, found := traceLookup(tr, id)
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for %q", id))
		return
	}
	if v.Explain == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("trace for %q carries no explain record (rejected before scoring, or still in flight)", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"query_id": v.QueryID,
		"trace_id": v.TraceID,
		"status":   v.Status,
		"explain":  v.Explain,
	})
}
