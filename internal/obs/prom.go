package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per metric family, series
// sorted by name, histograms expanded into cumulative `_bucket{le=...}`
// lines plus `_sum` and `_count`. Series names carrying an inline label
// block (see Series) are grouped under their base family name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	typed := make(map[string]string) // family -> TYPE already emitted
	emitType := func(sb *strings.Builder, family, kind string) {
		if typed[family] == kind {
			return
		}
		typed[family] = kind
		fmt.Fprintf(sb, "# TYPE %s %s\n", family, kind)
	}

	var sb strings.Builder
	for _, name := range sortedKeys(snap.Counters) {
		family, _ := SplitSeries(name)
		emitType(&sb, family, "counter")
		fmt.Fprintf(&sb, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		family, _ := SplitSeries(name)
		emitType(&sb, family, "gauge")
		fmt.Fprintf(&sb, "%s %s\n", name, formatFloat(snap.Gauges[name]))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		family, labels := SplitSeries(name)
		emitType(&sb, family, "histogram")
		h := snap.Histograms[name]
		for _, b := range h.Buckets {
			fmt.Fprintf(&sb, "%s %d\n", withLabels(family+"_bucket", labels, "le=\""+formatFloat(b.UpperBound)+"\""), b.Count)
		}
		fmt.Fprintf(&sb, "%s %d\n", withLabels(family+"_bucket", labels, `le="+Inf"`), h.Count)
		fmt.Fprintf(&sb, "%s %s\n", withLabels(family+"_sum", labels, ""), formatFloat(h.SumSeconds))
		fmt.Fprintf(&sb, "%s %d\n", withLabels(family+"_count", labels, ""), h.Count)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// withLabels renders `name{labels,extra}`, omitting the braces when both
// label fragments are empty.
func withLabels(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ServerTimeouts bounds the connection lifecycle of an HTTP listener.
// Every network-facing server in the system (the metrics endpoint, the
// ingestion daemon) is built through NewHTTPServer so a slow or stalled
// client can never hold a connection open indefinitely.
type ServerTimeouts struct {
	// ReadHeader bounds how long a client may take to send the request
	// headers — the Slowloris window.
	ReadHeader time.Duration
	// Read bounds the whole request read, body included.
	Read time.Duration
	// Write bounds the response write.
	Write time.Duration
	// Idle bounds how long a keep-alive connection may sit between
	// requests.
	Idle time.Duration
}

// DefaultServerTimeouts are the hardened defaults: tight on headers,
// generous enough on bodies for a multi-megabyte document upload.
func DefaultServerTimeouts() ServerTimeouts {
	return ServerTimeouts{
		ReadHeader: 10 * time.Second,
		Read:       time.Minute,
		Write:      time.Minute,
		Idle:       2 * time.Minute,
	}
}

// NewHTTPServer builds an http.Server with the connection-lifecycle
// timeouts applied (zero fields fall back to DefaultServerTimeouts).
func NewHTTPServer(handler http.Handler, t ServerTimeouts) *http.Server {
	def := DefaultServerTimeouts()
	if t.ReadHeader == 0 {
		t.ReadHeader = def.ReadHeader
	}
	if t.Read == 0 {
		t.Read = def.Read
	}
	if t.Write == 0 {
		t.Write = def.Write
	}
	if t.Idle == 0 {
		t.Idle = def.Idle
	}
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}

// MetricsServer is a running metrics endpoint (see ServeMetrics).
type MetricsServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	done chan struct{}
}

// closeGrace bounds how long Close waits for in-flight scrapes before
// dropping their connections.
const closeGrace = 5 * time.Second

// Shutdown stops the endpoint gracefully: the listener closes at once,
// in-flight scrapes finish, and only when ctx ends are the survivors'
// connections dropped.
func (m *MetricsServer) Shutdown(ctx context.Context) error {
	err := m.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still in flight: drop them.
		_ = m.srv.Close()
	}
	<-m.done
	return err
}

// Close shuts the endpoint down, letting in-flight scrapes finish (a
// scrape racing a shutdown used to get its connection cut mid-response).
// Handlers still running after a short grace period are dropped.
func (m *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	return m.Shutdown(ctx)
}

// ServeMetrics starts an HTTP listener exposing the registry in
// Prometheus text format on /metrics. Go runtime health series
// (goroutines, heap, GC — see RegisterRuntimeMetrics) are registered
// automatically, so a -metrics-addr scrape answers "is the scanner
// healthy" without pprof. The server runs until Close. This is what the
// CLIs' -metrics-addr flag mounts.
func (r *Registry) ServeMetrics(addr string) (*MetricsServer, error) {
	return r.serveMetrics(addr, nil)
}

// serveMetrics builds and starts the metrics endpoint, letting the
// caller mount extra handlers on the mux (see ServeMetricsDiag).
func (r *Registry) serveMetrics(addr string, extra func(mux *http.ServeMux)) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	r.RegisterRuntimeMetrics()
	RegisterBuildInfo(r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	if extra != nil {
		extra(mux)
	}
	srv := NewHTTPServer(mux, ServerTimeouts{})
	m := &MetricsServer{Addr: ln.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		_ = srv.Serve(ln)
	}()
	return m, nil
}
