package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorcq"
)

// newTestServer builds the six-node walkthrough network behind the HTTP
// service and returns the httptest server wrapping it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := newWalkthroughServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newWalkthroughServer builds the six-node walkthrough network behind the
// HTTP service, without a listener; the System is closed when the test ends.
func newWalkthroughServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	dep, err := sensorcq.NewTopology(6).
		Link(5, 4).Link(4, 3).Link(3, 0).Link(3, 1).Link(4, 2).
		PlaceSensor(0, sensorcq.Sensor{ID: "a", Attr: sensorcq.AmbientTemperature}).
		PlaceSensor(1, sensorcq.Sensor{ID: "b", Attr: sensorcq.RelativeHumidity}).
		PlaceSensor(2, sensorcq.Sensor{ID: "c", Attr: sensorcq.WindSpeed}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{Approach: sensorcq.FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DefaultNode = 5
	t.Cleanup(func() { _ = sys.Close() })
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

const walkthroughSpec = `{"id":"mild-and-dry","delta_t":30,"sensors":[` +
	`{"sensor":"a","min":50,"max":80},{"sensor":"b","min":10,"max":30}]}`

func doJSON(t *testing.T, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// sseFrame is one parsed SSE frame (event name + data payload).
type sseFrame struct {
	event string
	data  string
}

// readSSE parses frames off an open SSE stream into the channel until the
// stream ends.
func readSSE(body io.Reader, frames chan<- sseFrame) {
	defer close(frames)
	sc := bufio.NewScanner(body)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case line == "" && f.event != "":
			frames <- f
			f = sseFrame{}
		}
	}
}

func waitFrame(t *testing.T, frames <-chan sseFrame, wantEvent string) sseFrame {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream ended while waiting for %q frame", wantEvent)
			}
			if f.event == wantEvent {
				return f
			}
		case <-deadline:
			t.Fatalf("no %q frame within 10s", wantEvent)
		}
	}
}

// TestEndToEnd drives the full two-plane flow over real HTTP: register,
// stream, ingest an NDJSON batch, receive the complex event as an SSE frame,
// check /metrics against the wrapped System, retract, and watch the stream
// end.
func TestEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	// Register on the control plane.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", walkthroughSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %s %s", resp.Status, body)
	}
	var st SubscriptionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "mild-and-dry" || st.Node != 5 || !st.Active {
		t.Fatalf("register status = %+v", st)
	}

	// Listing shows it.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/subscriptions", "", "")
	var list []SubscriptionStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list) != 1 || list[0].ID != "mild-and-dry" {
		t.Fatalf("list = %s %s", resp.Status, body)
	}

	// Open the data plane.
	stream, err := http.Get(ts.URL + "/subscriptions/mild-and-dry/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	frames := make(chan sseFrame, 16)
	go readSSE(stream.Body, frames)

	// A second stream for the same subscription is refused.
	second, err := http.Get(ts.URL + "/subscriptions/mild-and-dry/stream")
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusConflict {
		t.Fatalf("second stream = %s, want 409", second.Status)
	}

	// Ingest an NDJSON batch: two correlating readings plus one that no
	// subscription asks for.
	batch := `{"seq":1,"sensor":"a","value":62,"time":100}` + "\n" +
		`{"seq":2,"sensor":"c","value":7,"time":101}` + "\n" +
		`{"seq":3,"sensor":"b","value":22,"time":105}` + "\n"
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/events", "application/x-ndjson", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s %s", resp.Status, body)
	}
	var pub map[string]int
	if err := json.Unmarshal(body, &pub); err != nil {
		t.Fatal(err)
	}
	if pub["published"] != 3 {
		t.Fatalf("published = %d, want 3", pub["published"])
	}

	// The correlated complex event arrives on the stream.
	f := waitFrame(t, frames, "delivery")
	var d DeliveryWire
	if err := json.Unmarshal([]byte(f.data), &d); err != nil {
		t.Fatalf("delivery frame %q: %v", f.data, err)
	}
	if d.Subscription != "mild-and-dry" || d.Node != 5 || len(d.Events) != 2 {
		t.Fatalf("delivery = %+v", d)
	}
	if d.Events[0].Sensor != "a" && d.Events[1].Sensor != "a" {
		t.Fatalf("delivery events missing sensor a: %+v", d.Events)
	}

	// A single-event POST also works and correlates with nothing (too far in
	// time from the batch).
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/events", "application/json",
		`{"seq":4,"sensor":"a","value":60,"time":500}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest: %s %s", resp.Status, body)
	}

	// /metrics agrees with the wrapped System.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s %s", resp.Status, body)
	}
	var m MetricsWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	traffic := srv.System().Traffic()
	if m.Traffic.EventLoad != traffic.EventLoad ||
		m.Traffic.SubscriptionLoad != traffic.SubscriptionLoad ||
		m.Traffic.AdvertisementLoad != traffic.AdvertisementLoad ||
		m.Traffic.UnsubscriptionLoad != traffic.UnsubscriptionLoad {
		t.Errorf("metrics traffic %+v != System.Traffic() %+v", m.Traffic, traffic)
	}
	if m.Subscriptions != 1 || m.Delivered != 1 || m.DroppedPushes != 0 || m.DroppedMessages != 0 {
		t.Errorf("metrics = %+v, want 1 subscription, 1 delivered, 0 dropped", m)
	}
	if m.Approach != string(sensorcq.FilterSplitForward) {
		t.Errorf("metrics approach = %q", m.Approach)
	}

	// A client-sent "round" is accepted and ignored: the reading correlates
	// with seq 4, and the delivery carries the round the engine gave this
	// third POST, not 99.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/events", "application/json",
		`{"seq":5,"sensor":"b","value":20,"time":510,"round":99}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with a round: %s %s", resp.Status, body)
	}
	f = waitFrame(t, frames, "delivery")
	var late DeliveryWire
	if err := json.Unmarshal([]byte(f.data), &late); err != nil {
		t.Fatalf("delivery frame %q: %v", f.data, err)
	}
	if len(late.Events) != 2 || late.Round != d.Round+2 {
		t.Fatalf("delivery = %+v, want 2 events stamped round %d", late, d.Round+2)
	}

	// Retract: 204, the stream ends with an "event: end" frame, and the
	// subscription is gone from the registry.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/subscriptions/mild-and-dry", "", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retract: %s %s", resp.Status, body)
	}
	waitFrame(t, frames, "end")
	for range frames { // stream closes after the end frame
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/subscriptions/mild-and-dry", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after retract = %s, want 404", resp.Status)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/subscriptions/mild-and-dry", "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double retract = %s, want 404", resp.Status)
	}
}

// controlPlaneErrors is the error contract of the control plane, one
// request per case. The wire fuzzers seed their corpora with its bodies,
// all but the two past DefaultMaxBatchBytes.
var controlPlaneErrors = []struct {
	name, method, path, ct, body string
	want                         int
}{
	{"malformed spec", http.MethodPost, "/subscriptions", "application/json", `{"id":`, http.StatusBadRequest},
	{"data after the spec", http.MethodPost, "/subscriptions", "application/json", walkthroughSpec + ` {"junk":1}`, http.StatusBadRequest},
	{"no filters", http.MethodPost, "/subscriptions", "application/json", `{"id":"x","delta_t":30}`, http.StatusBadRequest},
	{"both filter kinds", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"x","delta_t":30,"sensors":[{"sensor":"a","min":0,"max":1}],"attributes":[{"attr":"wind_speed","min":0,"max":1}]}`,
		http.StatusBadRequest},
	{"unknown sensor", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"x","delta_t":30,"sensors":[{"sensor":"ghost","min":0,"max":1}]}`, http.StatusBadRequest},
	{"node out of range", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"x","node":99,"delta_t":30,"sensors":[{"sensor":"a","min":0,"max":1}]}`, http.StatusBadRequest},
	{"bad backpressure", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"x","delta_t":30,"sensors":[{"sensor":"a","min":0,"max":1}],"backpressure":{"mode":"bogus"}}`,
		http.StatusBadRequest},
	{"oversized sink buffer", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"x","delta_t":30,"sensors":[{"sensor":"a","min":0,"max":1}],"sink_buffer":1099511627776}`,
		http.StatusBadRequest},
	{"unknown event sensor", http.MethodPost, "/events", "application/json", `{"sensor":"ghost","value":1}`, http.StatusBadRequest},
	{"malformed ndjson line", http.MethodPost, "/events", "application/x-ndjson",
		`{"sensor":"a","value":1}` + "\n" + `{"sensor":`, http.StatusBadRequest},
	{"json reading with trailing garbage", http.MethodPost, "/events", "application/json",
		`{"sensor":"a","value":1}` + " trailing garbage", http.StatusBadRequest},
	{"empty json event", http.MethodPost, "/events", "application/json", "", http.StatusBadRequest},
	{"empty ndjson batch", http.MethodPost, "/events", "application/x-ndjson", "", http.StatusBadRequest},
	{"blank-line ndjson batch", http.MethodPost, "/events", "application/x-ndjson", "\n  \n\n", http.StatusBadRequest},
	{"oversized spec", http.MethodPost, "/subscriptions", "application/json",
		`{"id":"` + strings.Repeat("x", DefaultMaxBatchBytes) + `","delta_t":30}`, http.StatusRequestEntityTooLarge},
	{"oversized ndjson batch", http.MethodPost, "/events", "application/x-ndjson",
		strings.Repeat(`{"sensor":"a","value":1}`+"\n", DefaultMaxBatchBytes/25+1), http.StatusRequestEntityTooLarge},
	{"unknown subscription status", http.MethodGet, "/subscriptions/nope", "", "", http.StatusNotFound},
	{"unknown subscription stream", http.MethodGet, "/subscriptions/nope/stream", "", "", http.StatusNotFound},
	{"unknown subscription retract", http.MethodDelete, "/subscriptions/nope", "", "", http.StatusNotFound},
}

// TestControlPlaneErrors pins the error contract of the control plane. A
// rejected request changes nothing: in particular no rejected /events body
// replays a round, so the watermark stays where it was.
func TestControlPlaneErrors(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	for _, tc := range controlPlaneErrors {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.sys.Watermark()
			resp, body := doJSON(t, tc.method, ts.URL+tc.path, tc.ct, tc.body)
			if after := srv.sys.Watermark(); after != before {
				t.Errorf("%s %s moved the watermark %d -> %d", tc.method, tc.path, before, after)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %s %s, want %d", tc.method, tc.path, resp.Status, body, tc.want)
			}
			var e errorWire
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not an {\"error\": ...} object", body)
			}
		})
	}

	// Duplicate registration is a conflict.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", walkthroughSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first register = %s", resp.Status)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", walkthroughSpec)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register = %s %s, want 409", resp.Status, body)
	}
}

// TestJSONBodyPublishesEveryReading pins that a JSON body is a batch like an
// NDJSON one: every reading in it is published, in one round.
func TestJSONBodyPublishesEveryReading(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	before := srv.sys.Watermark()
	body := `{"sensor":"a","value":62,"time":100} {"sensor":"b","value":22,"time":105}`
	resp, got := doJSON(t, http.MethodPost, ts.URL+"/events", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s %s", resp.Status, got)
	}
	var pub map[string]int
	if err := json.Unmarshal(got, &pub); err != nil {
		t.Fatal(err)
	}
	if pub["published"] != 2 {
		t.Errorf("published = %d, want 2", pub["published"])
	}
	if after := srv.sys.Watermark(); after != before+1 {
		t.Errorf("watermark %d -> %d, want one round", before, after)
	}
}

// TestAbstractSubscriptionOverHTTP registers an abstract (attribute-typed)
// subscription and checks it correlates readings from matching sensors.
func TestAbstractSubscriptionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	spec := fmt.Sprintf(`{"id":"anywhere","delta_t":30,"attributes":[`+
		`{"attr":%q,"min":50,"max":80},{"attr":%q,"min":10,"max":30}]}`,
		string(sensorcq.AmbientTemperature), string(sensorcq.RelativeHumidity))
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register abstract: %s %s", resp.Status, body)
	}

	stream, err := http.Get(ts.URL + "/subscriptions/anywhere/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(stream.Body, frames)

	batch := `{"sensor":"a","value":62,"time":100}` + "\n" +
		`{"sensor":"b","value":22,"time":105}` + "\n"
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/events", "application/x-ndjson", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s %s", resp.Status, body)
	}
	f := waitFrame(t, frames, "delivery")
	var d DeliveryWire
	if err := json.Unmarshal([]byte(f.data), &d); err != nil {
		t.Fatal(err)
	}
	if d.Subscription != "anywhere" || len(d.Events) != 2 {
		t.Fatalf("delivery = %+v", d)
	}
	// Server-assigned sequence numbers are distinct and non-zero.
	if d.Events[0].Seq == 0 || d.Events[1].Seq == 0 || d.Events[0].Seq == d.Events[1].Seq {
		t.Errorf("server-assigned seqs = %d, %d", d.Events[0].Seq, d.Events[1].Seq)
	}
}

// TestAggregateSubscriptionOverHTTP registers a windowed aggregate query on
// the control plane, closes a window by ingesting one batch per round, reads
// the finalised window off the SSE stream, and cross-checks the
// partial-aggregate traffic counter in /metrics against the wrapped System.
func TestAggregateSubscriptionOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	spec := fmt.Sprintf(`{"id":"avg-temp","attributes":[{"attr":%q,"min":0,"max":100}],`+
		`"aggregate":{"func":"mean","window_rounds":2}}`,
		string(sensorcq.AmbientTemperature))
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register aggregate: %s %s", resp.Status, body)
	}

	stream, err := http.Get(ts.URL + "/subscriptions/avg-temp/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(stream.Body, frames)

	// Each POST /events batch is one quiescent replay round followed by a
	// flush, so two batches close the first two-round window.
	for round, ev := range []string{
		`{"sensor":"a","value":60,"time":100}`,
		`{"sensor":"a","value":70,"time":101}`,
	} {
		if resp, body := doJSON(t, http.MethodPost, ts.URL+"/events", "application/json", ev); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest round %d: %s %s", round+1, resp.Status, body)
		}
	}

	f := waitFrame(t, frames, "delivery")
	var d DeliveryWire
	if err := json.Unmarshal([]byte(f.data), &d); err != nil {
		t.Fatalf("delivery frame %q: %v", f.data, err)
	}
	if d.Subscription != "avg-temp" || d.Node != 5 || len(d.Events) != 0 {
		t.Fatalf("delivery = %+v", d)
	}
	if d.Aggregate == nil {
		t.Fatalf("delivery has no aggregate payload: %s", f.data)
	}
	if d.Aggregate.Value != 65 || d.Aggregate.Count != 2 ||
		d.Aggregate.StartRound != 1 || d.Aggregate.EndRound != 2 || d.Round != 2 {
		t.Fatalf("aggregate window = %+v (round %d), want mean 65 of 2 over rounds [1,2]", d.Aggregate, d.Round)
	}

	// An empty window (two rounds of non-matching readings) delivers a NaN
	// mean, which must reach the stream as a null value instead of a JSON
	// encoding error that silently kills it.
	for round, ev := range []string{
		`{"sensor":"c","value":5,"time":200}`,
		`{"sensor":"c","value":6,"time":201}`,
	} {
		if resp, body := doJSON(t, http.MethodPost, ts.URL+"/events", "application/json", ev); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest round %d: %s %s", round+3, resp.Status, body)
		}
	}
	f = waitFrame(t, frames, "delivery")
	if !strings.Contains(f.data, `"value":null`) {
		t.Fatalf("empty-window frame = %q, want null value", f.data)
	}
	if err := json.Unmarshal([]byte(f.data), &d); err != nil {
		t.Fatalf("empty-window frame %q: %v", f.data, err)
	}
	if d.Aggregate == nil || d.Aggregate.Count != 0 || !math.IsNaN(float64(d.Aggregate.Value)) {
		t.Fatalf("empty-window aggregate = %+v, want count 0 and NaN value", d.Aggregate)
	}

	// The sketch partials travelled the dissemination tree, and /metrics
	// reports exactly what the wrapped System counted.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s %s", resp.Status, body)
	}
	var m MetricsWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	traffic := srv.System().Traffic()
	if m.Traffic.PartialAggregateLoad != traffic.PartialAggregateLoad ||
		m.Traffic.PartialAggregateBytes != traffic.PartialAggregateBytes {
		t.Errorf("metrics partial-aggregate traffic %+v != System.Traffic() %+v", m.Traffic, traffic)
	}
	if m.Traffic.PartialAggregateLoad == 0 {
		t.Error("partial_aggregate_load = 0, want upstream partials on the dissemination tree")
	}
}

// TestGracefulShutdown pins the drain contract: in-flight work completes
// with zero dropped messages, streams end with an "event: end" frame, and
// mutations during/after the drain get 503.
func TestGracefulShutdown(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json", walkthroughSpec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %s %s", resp.Status, body)
	}
	stream, err := http.Get(ts.URL + "/subscriptions/mild-and-dry/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(stream.Body, frames)

	// Deliver one event, then shut down.
	batch := `{"seq":1,"sensor":"a","value":62,"time":100}` + "\n" +
		`{"seq":2,"sensor":"b","value":22,"time":105}` + "\n"
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/events", "application/x-ndjson", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s %s", resp.Status, body)
	}
	waitFrame(t, frames, "delivery")

	var wg sync.WaitGroup
	wg.Add(1)
	var endSeen bool
	go func() {
		defer wg.Done()
		for f := range frames {
			if f.event == "end" {
				endSeen = true
			}
		}
	}()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if !endSeen {
		t.Error("stream did not receive an end frame on shutdown")
	}

	// Post-shutdown state: drain dropped nothing, mutations are refused,
	// health reports draining, second shutdown reports closed.
	if got := srv.System().DroppedMessages(); got != 0 {
		t.Errorf("dropped messages after drain = %d, want 0", got)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/events", "application/json",
		`{"sensor":"a","value":60,"time":200}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after shutdown = %s %s, want 503", resp.Status, body)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/subscriptions", "application/json",
		`{"id":"late","delta_t":30,"sensors":[{"sensor":"a","min":0,"max":1}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register after shutdown = %s %s, want 503", resp.Status, body)
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz after shutdown = %s %s, want draining", resp.Status, body)
	}
	if err := srv.Shutdown(context.Background()); !errors.Is(err, sensorcq.ErrClosed) {
		t.Errorf("second Shutdown = %v, want ErrClosed", err)
	}
}

// TestConfigValidation pins New's rejection of broken configs.
func TestConfigValidation(t *testing.T) {
	dep, err := sensorcq.NewTopology(2).Link(0, 1).
		PlaceSensor(0, sensorcq.Sensor{ID: "s", Attr: sensorcq.WindSpeed}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sensorcq.NewSystem(dep, sensorcq.Config{Approach: sensorcq.FilterSplitForward, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if _, err := New(nil, Config{}); err == nil {
		t.Error("New(nil) should fail")
	}
	if _, err := New(sys, Config{DefaultNode: 7}); err == nil {
		t.Error("out-of-range default node should fail")
	}
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.DrainTimeout != DefaultDrainTimeout {
		t.Errorf("defaults not applied: %+v", srv.cfg)
	}
}
