// Package server wraps a sensorcq.System behind two HTTP planes so the
// continuous-query engine can serve remote users instead of a single
// in-process owner.
//
// The control plane is plain JSON over request/response:
//
//	POST   /subscriptions          register a subscription (SubscriptionSpec)
//	GET    /subscriptions          list registered subscriptions
//	GET    /subscriptions/{id}     one subscription's status
//	DELETE /subscriptions/{id}     retract network-wide
//	POST   /events                 ingest a batch of readings: EventSpecs
//	                               separated by whitespace (one JSON
//	                               reading, or NDJSON, one per line)
//	GET    /metrics                traffic, watermark, drop and index stats
//	GET    /healthz                liveness ("ok", or "draining")
//
// The data plane streams results:
//
//	GET /subscriptions/{id}/stream Server-Sent Events; every complex event
//	                               delivered to the subscription is pushed
//	                               as an "event: delivery" frame fed from
//	                               the SubscriptionHandle's channel sink. At
//	                               most one stream per subscription at a
//	                               time (a second concurrent reader gets
//	                               409).
//
// Every System mutation (register, retract, ingest) is serialised through
// one server mutex, so the daemon is safe over both the sequential engine
// (which is not goroutine-safe) and the concurrent one. Streams run outside
// the mutex: they only read from their subscription's delivery channel.
//
// Shutdown drains in this order: first new mutations are refused with 503
// (draining), then in-flight rounds propagate to quiescence
// (System.CloseContext bounded by Config.DrainTimeout — zero messages are
// dropped unless the bound expires), and only then is every handle's
// delivery channel closed, which ends each SSE stream with an "event: end"
// frame. The HTTP listener itself is the caller's to close (cmd/cqd calls
// http.Server.Shutdown after Server.Shutdown returns, when no stream can
// linger).
package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sensorcq"
)

// Server exposes one sensorcq.System over the two HTTP planes. Create it
// with New, mount Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config
	sys *sensorcq.System

	mux *http.ServeMux
	seq atomic.Uint64 // server-assigned event sequence numbers

	// mu serialises every System mutation and guards subs. The sequential
	// engine processes injections inline on the calling goroutine, so two
	// concurrent HTTP mutations must never reach it at once.
	mu       sync.Mutex
	subs     map[string]*subEntry
	draining bool
}

// subEntry is one registered subscription: its lifecycle handle plus the
// stream claim (at most one SSE reader at a time).
type subEntry struct {
	handle    *sensorcq.SubscriptionHandle
	streaming atomic.Bool
}

// New validates the config and builds a server around an existing System.
// The server takes over the System's lifecycle: Shutdown closes it.
func New(sys *sensorcq.System, cfg Config) (*Server, error) {
	if err := cfg.validate(sys); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg.withDefaults(),
		sys:  sys,
		subs: make(map[string]*subEntry),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /subscriptions", s.handleRegister)
	s.mux.HandleFunc("GET /subscriptions", s.handleList)
	s.mux.HandleFunc("GET /subscriptions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /subscriptions/{id}", s.handleRetract)
	s.mux.HandleFunc("GET /subscriptions/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the HTTP handler serving both planes.
func (s *Server) Handler() http.Handler { return s.mux }

// HTTPServer returns the listener the daemon serves Handler with. A peer that
// connects and goes quiet must not hold a connection for as long as it likes:
// it gets 10 s to finish a request header and 120 s between requests. There
// is deliberately no ReadTimeout or WriteTimeout — both bound a whole
// exchange, and an SSE stream is one response that lives as long as its
// subscription.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{Addr: addr, Handler: s.mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 120 * time.Second}
}

// System returns the wrapped system (tests compare /metrics against it).
func (s *Server) System() *sensorcq.System { return s.sys }

// Shutdown gracefully stops the service plane: it refuses new mutations
// with 503, waits for the mutation in flight (if any) to finish, drains the
// network to quiescence bounded by Config.DrainTimeout, and closes every
// subscription handle — ending each SSE stream with an "event: end" frame.
// It returns the drain error (nil on a clean drain, context.DeadlineExceeded
// if the bound expired first). The caller shuts the HTTP listener down
// afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return sensorcq.ErrClosed
	}
	s.draining = true
	s.mu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	return s.sys.CloseContext(dctx)
}

// sensorByID resolves a sensor in the wrapped deployment.
func (s *Server) sensorByID(id sensorcq.SensorID) (sensorcq.Sensor, bool) {
	dep := s.sys.Deployment()
	node, ok := dep.SensorHost[id]
	if !ok {
		return sensorcq.Sensor{}, false
	}
	for _, sensor := range dep.NodeSensors[node] {
		if sensor.ID == id {
			return sensor, true
		}
	}
	return sensorcq.Sensor{}, false
}
