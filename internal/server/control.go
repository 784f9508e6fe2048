package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"sensorcq"
)

// writeJSON serialises one response body; encoding failures at this point
// can only be I/O errors on an already-started response, so they are
// dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorWire{Error: err.Error()})
}

// errDraining is the body of every 503 issued after Shutdown started.
var errDraining = errors.New("server is draining")

// beginMutation serialises a System mutation: it takes the server mutex and
// rejects the request if the server is draining. On success the caller owns
// the mutex and must call s.mu.Unlock.
func (s *Server) beginMutation(w http.ResponseWriter) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return false
	}
	return true
}

// statusLocked builds the wire status of one entry; the caller holds s.mu.
func statusLocked(id string, e *subEntry) SubscriptionStatus {
	return SubscriptionStatus{
		ID:            id,
		Node:          int(e.handle.Node()),
		Active:        e.handle.Active(),
		Streaming:     e.streaming.Load(),
		Delivered:     e.handle.Delivered(),
		DroppedPushes: e.handle.DroppedPushes(),
	}
}

// handleRegister serves POST /subscriptions.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec SubscriptionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, DefaultMaxBatchBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("decoding subscription spec: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, bodyStatus(err), errors.New("decoding subscription spec: data after the spec"))
		return
	}
	sub, node, opts, err := s.buildSubscription(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.beginMutation(w) {
		return
	}
	defer s.mu.Unlock()
	handle, err := s.sys.SubscribeContext(r.Context(), node, sub, opts...)
	switch {
	case errors.Is(err, sensorcq.ErrDuplicateSubscription):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, statusFor(r, err), err)
		return
	}
	e := &subEntry{handle: handle}
	s.subs[spec.ID] = e
	writeJSON(w, http.StatusCreated, statusLocked(spec.ID, e))
}

// handleList serves GET /subscriptions.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]SubscriptionStatus, 0, len(s.subs))
	for id, e := range s.subs {
		out = append(out, statusLocked(id, e))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// handleGet serves GET /subscriptions/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.subs[id]
	var st SubscriptionStatus
	if ok {
		st = statusLocked(id, e)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", sensorcq.ErrUnknownSubscription, id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRetract serves DELETE /subscriptions/{id}. A successful retraction
// removes the entry, so retracting twice yields 404; an entry whose handle
// was already retracted out-of-band yields 409.
func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.beginMutation(w) {
		return
	}
	defer s.mu.Unlock()
	e, ok := s.subs[id]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", sensorcq.ErrUnknownSubscription, id))
		return
	}
	err := e.handle.Unsubscribe()
	switch {
	case errors.Is(err, sensorcq.ErrUnsubscribed):
		delete(s.subs, id)
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	delete(s.subs, id)
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents serves POST /events: a stream of whitespace-separated JSON
// EventSpecs — one reading, or an NDJSON batch with one spec per line; the
// Content-Type does not change the parsing. The whole batch is validated
// before any event enters the network, so anything that is not a reading
// rejects the batch atomically.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, DefaultMaxBatchBytes))
	var events []sensorcq.Event
	for i := 1; ; i++ {
		var spec EventSpec
		err := dec.Decode(&spec)
		if err == io.EOF {
			break
		}
		var ev sensorcq.Event
		if err == nil {
			ev, err = s.buildEvent(&spec)
		}
		if err != nil {
			writeError(w, bodyStatus(err), fmt.Errorf("reading %d: %w", i, err))
			return
		}
		events = append(events, ev)
	}
	// An empty batch would still replay a round and advance the watermark,
	// shifting every aggregate window.
	if len(events) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch: no readings"))
		return
	}

	if !s.beginMutation(w) {
		return
	}
	defer s.mu.Unlock()
	if err := s.sys.PublishBatchContext(r.Context(), events); err != nil {
		writeError(w, statusFor(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"published": len(events)})
}

// handleMetrics serves GET /metrics. IndexStats flushes the runtime, so it
// counts as a mutation and is serialised like one.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	traffic := s.sys.Traffic()
	index := s.sys.IndexStats()
	var delivered, droppedPushes int64
	for _, h := range s.sys.Handles() {
		delivered += h.Delivered()
		droppedPushes += h.DroppedPushes()
	}
	m := MetricsWire{
		Approach:        string(s.sys.Approach()),
		Subscriptions:   len(s.subs),
		Delivered:       delivered,
		DroppedPushes:   droppedPushes,
		DroppedMessages: s.sys.DroppedMessages(),
		Watermark:       s.sys.Watermark(),
		Traffic: TrafficWire{
			AdvertisementLoad:     traffic.AdvertisementLoad,
			SubscriptionLoad:      traffic.SubscriptionLoad,
			UnsubscriptionLoad:    traffic.UnsubscriptionLoad,
			EventLoad:             traffic.EventLoad,
			PartialAggregateLoad:  traffic.PartialAggregateLoad,
			PartialAggregateBytes: traffic.PartialAggregateBytes,
		},
		Index: IndexWire{
			Trees:      index.Trees,
			Members:    index.Members,
			Boxes:      index.Boxes,
			MaxHeight:  index.MaxHeight,
			Lookups:    index.Lookups,
			Candidates: index.Candidates,
		},
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// bodyStatus maps an error reading a request body onto an HTTP status: 413
// for a body past DefaultMaxBatchBytes, 400 for anything else the client
// sent wrong.
func bodyStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps a mutation error onto an HTTP status: a cancelled request
// context is the client's doing (499-style, reported as 400), everything
// else is a server-side failure.
func statusFor(r *http.Request, err error) int {
	if ctxErr := r.Context().Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return http.StatusBadRequest
	}
	if errors.Is(err, sensorcq.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
