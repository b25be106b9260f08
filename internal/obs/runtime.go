package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Runtime gauges and the debug server. Profiling and introspection
// never ride the serving listener: pprof handlers can hold connections
// for 30s+ (profile, trace) and reading full heap stats stops the
// world briefly, so both live on a separate opt-in listener
// (-debug-addr) that operators can firewall independently.

// processStart is when the process started, near enough: package
// initialisation runs before main.
var processStart = time.Now()

// RuntimeCollector returns a collector emitting the Go runtime's gauges
// under the given metric-name prefix, read when a scrape renders them:
// one runtime.ReadMemStats, a brief stop-the-world, per scrape.
func RuntimeCollector(prefix string) Collector {
	return func(e *Expo) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		var lastPause time.Duration
		if m.NumGC > 0 {
			lastPause = time.Duration(m.PauseNs[(m.NumGC+255)%256])
		}
		e.Gauge(prefix+"uptime_seconds", "Seconds since process start.", "", time.Since(processStart).Seconds())
		e.Gauge(prefix+"goroutines", "Goroutine count.", "", float64(runtime.NumGoroutine()))
		e.Gauge(prefix+"heap_alloc_bytes", "Live heap bytes.", "", float64(m.HeapAlloc))
		e.Gauge(prefix+"heap_sys_bytes", "Heap bytes obtained from the OS.", "", float64(m.HeapSys))
		e.Counter(prefix+"alloc_bytes_total", "Cumulative bytes allocated.", "", float64(m.TotalAlloc))
		e.Counter(prefix+"gc_cycles_total", "Completed GC cycles.", "", float64(m.NumGC))
		e.Gauge(prefix+"gc_last_pause_seconds", "Most recent GC stop-the-world pause.", "", lastPause.Seconds())
		e.Counter(prefix+"gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "",
			time.Duration(m.PauseTotalNs).Seconds())
	}
}

// DebugServer hosts pprof and a metrics exposition on their own
// listener.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// DebugHandler is one extra route mounted on the debug listener.
type DebugHandler struct {
	// Pattern in net/http.ServeMux form (e.g. "GET /debug/exemplars").
	Pattern string
	Handler http.HandlerFunc
}

// debugServerOptions tunes the debug listener's connection lifecycle.
// The zero value selects defaults sized for pprof: profile and trace
// handlers stream for tens of seconds, so WriteTimeout must stay far
// above an ordinary scrape's.
type debugServerOptions struct {
	// ReadHeaderTimeout bounds request-header reads (default 10s).
	ReadHeaderTimeout time.Duration
	// WriteTimeout bounds a whole response write. It must comfortably
	// cover /debug/pprof/profile and /debug/pprof/trace, which stream
	// for their ?seconds= duration (30s default) before writing
	// completes — the default is 5m.
	WriteTimeout time.Duration
	// IdleTimeout reaps keep-alive connections with no in-flight
	// request (default 2m). Without it an idle or slow-reading client
	// pins a connection — and its goroutine — forever.
	IdleTimeout time.Duration
}

func (o debugServerOptions) withDefaults() debugServerOptions {
	if o.ReadHeaderTimeout <= 0 {
		o.ReadHeaderTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Minute
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	return o
}

// StartDebugServer listens on addr and serves:
//
//	/debug/pprof/...   the standard net/http/pprof handlers
//	/metrics           Prometheus exposition of reg (when non-nil)
//	extra...           caller-supplied introspection routes (e.g. the
//	                   serving layer's GET /debug/exemplars)
//
// It returns once the listener is bound (so startup failures surface
// immediately) and serves in the background until Close. Connections
// get the debugServerOptions defaults: 10s to read headers, 5m to write
// a response (a pprof profile streams for 30s), 2m idle.
func StartDebugServer(addr string, reg *Registry, extra ...DebugHandler) (*DebugServer, error) {
	return startDebugServerWith(addr, reg, debugServerOptions{}, extra...)
}

// startDebugServerWith is StartDebugServer with explicit connection
// timeouts.
func startDebugServerWith(addr string, reg *Registry, opts debugServerOptions, extra ...DebugHandler) (*DebugServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if reg != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", TextContentType)
			_ = reg.WritePrometheus(w)
		})
	}
	for _, h := range extra {
		mux.HandleFunc(h.Pattern, h.Handler)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ds := &DebugServer{srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		WriteTimeout:      opts.WriteTimeout,
		IdleTimeout:       opts.IdleTimeout,
	}, ln: ln}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the debug listener down.
func (d *DebugServer) Close() error { return d.srv.Close() }
