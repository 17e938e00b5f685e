package hybridmem

import (
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// TestServeClosesStalledHeader pins the slowloris guard: a connection
// that sends half a request header and stalls is closed once the header
// timeout passes, instead of holding a server goroutine forever.
func TestServeClosesStalledHeader(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ServeOptions{Addr: "127.0.0.1:0", OnListen: func(a string) { addrs <- a }})
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	var addr string
	select {
	case addr = <-addrs:
	case err := <-done:
		t.Fatalf("Serve exited before listening: %v", err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 || d > readHeaderTimeout+5*time.Second {
		t.Fatalf("stalled connection closed after %v, want about %v", d, readHeaderTimeout)
	}
}
