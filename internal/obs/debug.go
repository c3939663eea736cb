package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// Diagnostics bundles the runtime's introspection surfaces — flight
// recorder and stall watchdog — behind one handle the pipeline owns and
// servers mount. A nil *Diagnostics is fully inert; commands that run
// no pipeline pass one to ServeMetricsDiag and WriteDump.
type Diagnostics struct {
	Flight   *FlightRecorder
	Watchdog *Watchdog
}

// NewDiagnostics builds the subsystem and exports its metric series into
// reg. The flight recorder always runs with its defaults; wd tunes the
// stall watchdog (the zero value enables it with defaults).
func NewDiagnostics(reg *Registry, wd WatchdogConfig) *Diagnostics {
	wd.Obs = reg
	return &Diagnostics{
		Flight:   NewFlightRecorder(FlightConfig{Obs: reg}),
		Watchdog: NewWatchdog(wd),
	}
}

// Close stops the watchdog's scan loop.
func (d *Diagnostics) Close() {
	if d == nil {
		return
	}
	d.Watchdog.Stop()
}

// debugLimit parses the ?n= query bound (default def, capped at 1000).
func debugLimit(r *http.Request, def int) int {
	n := def
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	if n > 1000 {
		n = 1000
	}
	return n
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// RegisterDebug mounts the live debug endpoints under prefix (e.g.
// "/v1/debug"):
//
//	<prefix>/traces          recent + tail-sampled traces (?n= bound,
//	                         ?doc=<id> filters to one document)
//	<prefix>/slow            slowest retained traces by total latency
//	<prefix>/stalls          stall watchdog reports (goroutine dumps)
//
// Safe to call on a nil *Diagnostics (mounts nothing).
func (d *Diagnostics) RegisterDebug(mux *http.ServeMux, prefix string) {
	if d == nil || mux == nil {
		return
	}
	mux.HandleFunc("GET "+prefix+"/traces", func(w http.ResponseWriter, r *http.Request) {
		if docID := r.URL.Query().Get("doc"); docID != "" {
			writeJSON(w, map[string]any{"doc": docID, "traces": d.Flight.Find(docID)})
			return
		}
		n := debugLimit(r, 32)
		writeJSON(w, map[string]any{
			"stats":  d.Flight.Stats(),
			"recent": d.Flight.Recent(n),
			"tail":   d.Flight.Tail(n),
		})
	})
	mux.HandleFunc("GET "+prefix+"/slow", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"slowest": d.Flight.Slowest(debugLimit(r, 16))})
	})
	mux.HandleFunc("GET "+prefix+"/stalls", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"stats":   d.Watchdog.Stats(),
			"reports": d.Watchdog.Reports(),
		})
	})
}

// RegisterPprof mounts the net/http/pprof handlers at their conventional
// /debug/pprof/ prefix. The prefix is fixed because pprof.Index renders
// links assuming it. Profiling endpoints expose goroutine stacks and
// heap contents, so servers mount this only behind an explicit opt-in
// flag (-pprof).
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// WriteDump renders a human-readable diagnostic snapshot: build
// identity, slowest retained traces, stall reports and a full goroutine
// dump. This is what SIGQUIT prints and what operators paste into
// incident channels. Safe on a nil *Diagnostics (dumps build info and
// goroutines only).
func (d *Diagnostics) WriteDump(w io.Writer) {
	fmt.Fprintf(w, "=== pdfshield diagnostic dump ===\n")
	fmt.Fprintf(w, "version: %s (%s)\n", Version, runtime.Version())
	fmt.Fprintf(w, "goroutines: %d\n", runtime.NumGoroutine())

	if d != nil {
		fmt.Fprintf(w, "\n--- flight recorder ---\n")
		st := d.Flight.Stats()
		fmt.Fprintf(w, "recorded=%d recent=%d/%d tail=%d/%d\n",
			st.Recorded, st.RecentLen, st.RecentCap, st.TailLen, st.TailCap)
		for _, rec := range d.Flight.Slowest(10) {
			tr := rec.Trace
			fmt.Fprintf(w, "#%d %s %.3fs outcome=%q depth=%q route=%q retained=%v\n",
				rec.Seq, tr.DocID, rec.TotalSeconds, tr.Outcome, tr.Depth, tr.Route, rec.Retained)
		}

		if reports := d.Watchdog.Reports(); len(reports) > 0 {
			fmt.Fprintf(w, "\n--- stall reports (%d) ---\n", len(reports))
			for _, rep := range reports {
				fmt.Fprintf(w, "%s stuck %.1fs in %q since %s\n",
					rep.DocID, rep.Stalled.Seconds(), rep.Phase, rep.Since.Format(time.RFC3339))
			}
		}
	}

	fmt.Fprintf(w, "\n--- goroutines ---\n")
	buf := make([]byte, DefaultStackBytes)
	buf = buf[:runtime.Stack(buf, true)]
	w.Write(buf)
	fmt.Fprintf(w, "\n=== end dump ===\n")
}

// ServeMetricsDiag is ServeMetrics plus the diagnostics surface: debug
// endpoints under /v1/debug (when diag is non-nil) and, when pprofOn is
// set, the net/http/pprof handlers. This backs the CLIs' -metrics-addr
// + -pprof flag pair.
func (r *Registry) ServeMetricsDiag(addr string, diag *Diagnostics, pprofOn bool) (*MetricsServer, error) {
	return r.serveMetrics(addr, func(mux *http.ServeMux) {
		diag.RegisterDebug(mux, "/v1/debug")
		if pprofOn {
			RegisterPprof(mux)
		}
	})
}
