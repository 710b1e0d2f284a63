package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// SnapshotProvider is implemented by stores that expose a mergeable
// metrics snapshot (FloDB, the baselines, the coordinator) and by the
// server, whose snapshot merges its own with its store's.
type SnapshotProvider interface {
	TelemetrySnapshot() Snapshot
}

// EventProvider is implemented by stores that retain a structured event
// log; n <= 0 returns everything buffered.
type EventProvider interface {
	TelemetryEvents(n int) []Event
}

// DebugOptions wires a process's telemetry sources into the debug mux.
// Every field is a function so each scrape sees a fresh (and, for
// multi-source processes, freshly merged) view.
type DebugOptions struct {
	// Snapshot returns the merged metrics snapshot served at /metrics.
	Snapshot func() Snapshot
	// Events returns up to n recent events (n <= 0: all retained),
	// served at /events?last=N.
	Events func(n int) []Event
	// Statsz returns the structure rendered as JSON at /statsz —
	// typically the kv.Stats view plus op quantiles.
	Statsz func() any
}

// DebugMux returns the /debug telemetry surface flodbd serves:
//
//	/metrics        Prometheus text exposition (plus event counts)
//	/events?last=N  JSON array of recent structured events
//	/statsz         JSON stats dump (kv.Stats + op quantiles)
//	/debug/pprof/   stdlib pprof (profile, heap, trace, ...)
func DebugMux(o DebugOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var s Snapshot
		if o.Snapshot != nil {
			s = o.Snapshot()
		}
		_ = s.WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("last"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil || p < 0 {
				http.Error(w, "bad last parameter", http.StatusBadRequest)
				return
			}
			n = p
		}
		var evs []Event
		if o.Events != nil {
			evs = o.Events(n)
		}
		if evs == nil {
			evs = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(evs)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		var v any
		if o.Statsz != nil {
			v = o.Statsz()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
