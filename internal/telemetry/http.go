package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// EventsResponse is the /events payload. Dropped counts events evicted
// from the bounded ring (Total − what the ring still holds): nonzero
// means the tail is truncated history, not the full run — consumers
// needing completeness must use the JSONL stream.
type EventsResponse struct {
	Total   int     `json:"total"`
	Dropped int     `json:"dropped"`
	Events  []Event `json:"events"`
}

// TraceSource serves provenance span trees for the /trace endpoint.
// The provenance tracer implements it; the interface lives here so the
// telemetry package does not import provenance.
type TraceSource interface {
	// SpanTreesJSON renders the span forest whose periods overlap
	// [from, to] (to < 0 = no upper bound) as JSON.
	SpanTreesJSON(from, to int) ([]byte, error)
}

// Handler serves the hub over HTTP:
//
//	/metrics — Prometheus text exposition of the registry
//	/events  — JSON tail of the event ring (?n= limits, default 256;
//	           ?node= and ?kind= filter by exact node label and event
//	           type, ?from= and ?to= by period range, before the tail
//	           is taken; ?node= does not add rack-scope events),
//	           wrapped in EventsResponse so ring truncation is visible
//	/query   — one time-series window from the embedded store
//	           (?series=...&node=...&res=1|10|100&from=...&to=...),
//	           as a QueryResult (JSON; &format=csv for CSV rows)
//	/healthz — 200 "ok" (503 with the error when the JSONL stream broke)
//
// The cmd layer mounts this on the -metrics-addr listener; nothing in
// the seeded packages touches it.
func Handler(h *Hub) http.Handler {
	return HandlerWithTrace(h, nil)
}

// HandlerWithTrace is Handler plus a /trace endpoint serving span
// trees from ts (?from=/?to= bound the period range). With ts nil the
// endpoint answers 404, matching a run without a tracer.
func HandlerWithTrace(h *Hub, ts TraceSource) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if ts == nil {
			http.Error(w, "no tracer attached", http.StatusNotFound)
			return
		}
		from, to, err := periodRange(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := ts.SpanTreesJSON(from, to)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(b)
		_, _ = w.Write([]byte("\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		nodeFilter := r.URL.Query().Get("node")
		kindFilter := r.URL.Query().Get("kind")
		from, to, err := periodRange(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		events, total := h.EventsSnapshot()
		if nodeFilter != "" || kindFilter != "" || from > 0 || to >= 0 {
			kept := events[:0:0]
			for _, e := range events {
				if nodeFilter != "" && e.Node != nodeFilter {
					continue
				}
				if kindFilter != "" && string(e.Type) != kindFilter {
					continue
				}
				if e.Period < from || (to >= 0 && e.Period > to) {
					continue
				}
				kept = append(kept, e)
			}
			events = kept
		}
		resp := EventsResponse{Total: total, Dropped: total - len(events)}
		if len(events) > n {
			events = events[len(events)-n:]
		}
		resp.Events = events
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(resp)
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		q := QueryRequest{
			Node:   r.URL.Query().Get("node"),
			Series: r.URL.Query().Get("series"),
			Res:    1,
			From:   -1,
			To:     -1,
		}
		var err error
		if raw := r.URL.Query().Get("res"); raw != "" {
			if q.Res, err = strconv.Atoi(raw); err != nil {
				http.Error(w, "bad res: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if raw := r.URL.Query().Get("from"); raw != "" {
			if q.From, err = strconv.Atoi(raw); err != nil {
				http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if raw := r.URL.Query().Get("to"); raw != "" {
			if q.To, err = strconv.Atoi(raw); err != nil {
				http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		res, err := h.Query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			writeQueryCSV(w, res)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(res)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := h.Err(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "event stream error: %v\n", err)
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// periodRange parses the optional ?from= / ?to= period bounds shared
// by /events and /trace: from defaults to 0, to to -1 (unbounded).
func periodRange(r *http.Request) (from, to int, err error) {
	from, to = 0, -1
	if raw := r.URL.Query().Get("from"); raw != "" {
		if from, err = strconv.Atoi(raw); err != nil {
			return 0, 0, fmt.Errorf("bad from: %w", err)
		}
	}
	if raw := r.URL.Query().Get("to"); raw != "" {
		if to, err = strconv.Atoi(raw); err != nil {
			return 0, 0, fmt.Errorf("bad to: %w", err)
		}
	}
	return from, to, nil
}

// writeQueryCSV renders one query result as CSV rows (the same column
// layout WriteStoreCSV uses, restricted to the queried window).
func writeQueryCSV(w io.Writer, res QueryResult) {
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"node", "series", "start_period", "count", "min", "max", "mean", "flags"})
	for _, b := range res.Buckets {
		_ = cw.Write([]string{
			res.Node, res.Series,
			strconv.Itoa(b.StartPeriod), strconv.Itoa(b.Count),
			formatValue(b.Min), formatValue(b.Max), formatValue(b.Mean()),
			strconv.Itoa(int(b.Flags)),
		})
	}
	cw.Flush()
}

// Serve binds addr and serves Handler(h) in a background goroutine,
// returning the bound address (useful with ":0") — the server lives for
// the life of the process, which for the cmds is the life of the run.
func Serve(h *Hub, addr string) (string, error) {
	return ServeHandler(Handler(h), addr)
}

// ServeHandler is Serve for an arbitrary handler — the cmd layer uses
// it to mount extras (net/http/pprof) next to the hub endpoints without
// pulling pprof's side-effect import into this deterministic package.
func ServeHandler(handler http.Handler, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler}
	//lint:ignore determinism the HTTP server goroutine only reads hub snapshots; it never writes to the seeded timeline
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
