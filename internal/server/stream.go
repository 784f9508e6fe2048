package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"sensorcq"
)

// handleStream serves GET /subscriptions/{id}/stream: the data plane. Each
// delivery pushed to the subscription's channel sink is forwarded as one SSE
// frame:
//
//	event: delivery
//	data: {"subscription":"...","node":3,"round":7,"events":[...]}
//
// When the subscription is retracted (or the server drains) the sink
// closes and the stream ends with an "event: end" frame. Idle streams carry
// keep-alive comments every DefaultKeepAliveInterval. At most one stream per
// subscription is served at a time; a second reader gets 409.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.subs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", sensorcq.ErrUnknownSubscription, id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	ch := e.handle.Deliveries()
	if ch == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("subscription %s has no channel sink", id))
		return
	}
	if !e.streaming.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, fmt.Errorf("subscription %s already has an active stream", id))
		return
	}
	defer e.streaming.Store(false)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	keepAlive := time.NewTicker(DefaultKeepAliveInterval)
	defer keepAlive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case d, open := <-ch:
			if !open {
				// Retraction or shutdown closed the sink: tell the
				// client this is a deliberate end of stream, not a
				// dropped connection.
				_, _ = fmt.Fprint(w, "event: end\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			payload, err := json.Marshal(deliveryWire(d))
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: delivery\ndata: %s\n\n", payload); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
