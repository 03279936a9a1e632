package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics      Prometheus text format 0.0.4
//	/debug/vars   expvar (process-global, includes memstats/cmdline)
//	/debug/pprof  the standard net/http/pprof profiles
//
// pprof is mounted on this explicit mux rather than relying on
// http.DefaultServeMux, so exposition stays opt-in: nothing is served
// unless the caller binds this handler.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Snapshot().PromText())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "piggyback telemetry\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Serve binds addr and serves Handler(r) on it in a background
// goroutine, returning the bound listener (so addr may be ":0" and the
// caller can read the real port). The caller owns the listener; Close
// it to stop serving.
func Serve(addr string, r *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
