package metrics

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestStartServerBoundAddr binds ":0" and verifies the resolved address
// is reachable — the reason the managed server exists at all.
func TestStartServerBoundAddr(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "hello")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if strings.HasSuffix(srv.Addr(), ":0") {
		t.Fatalf("Addr %q did not resolve the port", srv.Addr())
	}
	resp, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello\n" {
		t.Fatalf("body = %q", body)
	}
}

// TestServerShutdown verifies a clean Shutdown reaps the serve goroutine
// (Err yields nil) and frees the port for rebinding.
func TestServerShutdown(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The error channel already delivered its value to Shutdown; a second
	// bind on the same address must now succeed.
	srv2, err := StartServer(addr, http.NewServeMux())
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	srv2.Shutdown(context.Background())
}

// TestServerBindFailure verifies an unusable address fails synchronously.
func TestServerBindFailure(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if _, err := StartServer(srv.Addr(), http.NewServeMux()); err == nil {
		t.Fatal("double bind should fail at StartServer, not on the error channel")
	}
}
