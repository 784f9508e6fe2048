package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// serve runs one request through the handler in-process: no listener, and
// no net/http connection recover that could hide a panic.
func serve(h http.Handler, method, target, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// fuzzSeeds returns the bodies of the control-plane error cases posted to
// the path, except the oversized ones: an 8 MiB seed would slow every
// mutation the fuzzer derives from it.
func fuzzSeeds(path string) (bodies, contentTypes []string) {
	for _, tc := range controlPlaneErrors {
		if tc.method == http.MethodPost && tc.path == path && tc.want != http.StatusRequestEntityTooLarge {
			bodies, contentTypes = append(bodies, tc.body), append(contentTypes, tc.ct)
		}
	}
	return bodies, contentTypes
}

// FuzzRegisterSpec posts arbitrary bodies to POST /subscriptions on a fresh
// walkthrough server. Every body is either registered (201, after which the
// subscription is readable under its ID) or refused as a client error (400,
// 409, or 413 past DefaultMaxBatchBytes); nothing panics or takes the
// process down.
func FuzzRegisterSpec(f *testing.F) {
	f.Add(walkthroughSpec)
	bodies, _ := fuzzSeeds("/subscriptions")
	for _, body := range bodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		h := newWalkthroughServer(t, Config{}).Handler()
		rec := serve(h, http.MethodPost, "/subscriptions", "application/json", body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("POST /subscriptions %q = %d %s", body, rec.Code, rec.Body)
		}
		var st SubscriptionStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("201 body %q: %v", rec.Body, err)
		}
		if get := serve(h, http.MethodGet, "/subscriptions/"+url.PathEscape(st.ID), "", ""); get.Code != http.StatusOK {
			t.Fatalf("registered %q, but GET /subscriptions/{id} = %d %s", st.ID, get.Code, get.Body)
		}
	})
}

// FuzzEventsBody posts arbitrary bodies to POST /events, as one JSON reading
// or as an NDJSON batch, on a fresh walkthrough server. Every body is either
// published (200) or refused as a client error (400, or 413 past
// DefaultMaxBatchBytes); nothing panics.
func FuzzEventsBody(f *testing.F) {
	f.Add(`{"seq":1,"sensor":"a","value":62,"time":100}`+"\n"+`{"seq":3,"sensor":"b","value":22,"time":105}`, true)
	f.Add(`{"seq":4,"sensor":"a","value":60,"time":500}`, false)
	bodies, cts := fuzzSeeds("/events")
	for i, body := range bodies {
		f.Add(body, cts[i] == "application/x-ndjson")
	}
	f.Fuzz(func(t *testing.T, body string, ndjson bool) {
		h := newWalkthroughServer(t, Config{}).Handler()
		ct := "application/json"
		if ndjson {
			ct = "application/x-ndjson"
		}
		switch rec := serve(h, http.MethodPost, "/events", ct, body); rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("POST /events (%s) %q = %d %s", ct, body, rec.Code, rec.Body)
		}
	})
}
