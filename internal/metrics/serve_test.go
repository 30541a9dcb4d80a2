package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func TestListenAndServeMetricsMux(t *testing.T) {
	reg := &Registry{}
	reg.Counter("engine.rounds").Set(11)
	addr, shutdown, err := ListenAndServe("127.0.0.1:0", Mux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	for _, path := range []string{"/metrics", "/"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]int64
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("%s returned invalid JSON: %v\n%s", path, err, body)
		}
		if snap["engine.rounds"] != 11 {
			t.Errorf("%s: engine.rounds = %d, want 11", path, snap["engine.rounds"])
		}
	}
}

func TestListenAndServeRejectsBadAddr(t *testing.T) {
	if _, _, err := ListenAndServe("not-an-address:-1", Mux(&Registry{})); err == nil {
		t.Error("unusable address should fail")
	}
}

// The shared server drops clients that stall in their headers or idle on a
// keep-alive connection, but never bounds a response's duration: the
// daemon's event stream lives as long as its job.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(Mux(&Registry{}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; streamed responses need both unset", srv.WriteTimeout, srv.ReadTimeout)
	}
}
