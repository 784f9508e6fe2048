package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestListenerCutsSilentClientsNotStreams serves over the listener
// configuration cqd uses and checks both sides of it: a client that connects
// and never finishes its request header is disconnected once
// ReadHeaderTimeout has passed, and an SSE stream that stays quiet for
// several times that long is not — it still delivers afterwards, because no
// deadline covers a whole response. The live part shortens the header
// timeout so the test does not wait out the daemon's ten seconds.
func TestListenerCutsSilentClientsNotStreams(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	hs := srv.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 120*time.Second {
		t.Fatalf("listener timeouts: header %v, idle %v; want 10s and 2m0s", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("listener sets a whole-exchange deadline (read %v, write %v): it would cut SSE streams", hs.ReadTimeout, hs.WriteTimeout)
	}
	const headerTimeout = 150 * time.Millisecond
	hs.ReadHeaderTimeout = headerTimeout
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	})
	base := "http://" + ln.Addr().String()

	resp, body := doJSON(t, http.MethodPost, base+"/subscriptions", "application/json", walkthroughSpec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %s %s", resp.Status, body)
	}
	stream, err := http.Get(base + "/subscriptions/mild-and-dry/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(stream.Body, frames)

	// The silent client: a request line and one header, never the blank line.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: cqd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(20 * headerTimeout))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a client that never finished its header was still connected after %v (header timeout %v)", time.Since(start), headerTimeout)
	}
	if waited := time.Since(start); waited < headerTimeout/2 {
		t.Fatalf("silent client disconnected after %v, before the header timeout %v could have fired", waited, headerTimeout)
	}

	// By now the stream has been open and quiet for the header timeout and
	// more; it must still carry the next delivery.
	time.Sleep(2 * headerTimeout)
	batch := `{"seq":1,"sensor":"a","value":62,"time":100}` + "\n" + `{"seq":2,"sensor":"b","value":22,"time":105}` + "\n"
	if resp, body := doJSON(t, http.MethodPost, base+"/events", "application/x-ndjson", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s %s", resp.Status, body)
	}
	waitFrame(t, frames, "delivery")
}
