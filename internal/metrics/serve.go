package metrics

import (
	"net"
	"net/http"
	"time"
)

// HTTP wiring shared by every process that exposes an observability surface
// (cmd/laacad's -metrics flag and the cmd/laacadd daemon), so the two serve
// the same handler instead of drifting copies.

// Connection timeouts of the shared server. A client that has not finished
// sending its request headers after readHeaderTimeout is disconnected, and
// so is a keep-alive connection left idle for idleTimeout. There is
// deliberately no write timeout, nor a whole-request read timeout (whose
// expiry cancels the request context): the daemon's /jobs/{id}/events
// stream stays open for as long as its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Mux returns a mux exposing reg at /metrics and at the root — the standard
// layout for a standalone metrics listener.
func Mux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.Handle("/", reg)
	return mux
}

// ListenAndServe binds addr, serves h on it in the background, and returns
// the bound address (useful with a ":0" port) together with a shutdown
// function that closes the listener and any active connections.
func ListenAndServe(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := newServer(h)
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// newServer returns the server ListenAndServe runs: h behind the connection
// timeouts above.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
