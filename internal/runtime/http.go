// Live introspection endpoint for runtime executions: Prometheus metrics
// plus the standard pprof profiles, served off a private mux so importing
// this package never pollutes http.DefaultServeMux.
package runtime

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"bwc/internal/obs"
)

// MetricsServer is a running introspection endpoint. Close releases it.
type MetricsServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// ServeMetrics starts an HTTP server on addr exposing the scope's metrics
// in Prometheus text format at /metrics and the Go runtime profiles under
// /debug/pprof/. It returns as soon as the listener is bound; scrape
// while an Execute run is in flight, Close when done.
func ServeMetrics(sc *obs.Scope, addr string) (*MetricsServer, error) {
	if !sc.Enabled() {
		return nil, fmt.Errorf("runtime: metrics server needs an enabled scope")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		sc.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go ms.srv.Serve(ln)
	return ms, nil
}

// Close shuts the server down immediately.
func (ms *MetricsServer) Close() error {
	if ms == nil || ms.srv == nil {
		return nil
	}
	return ms.srv.Close()
}
