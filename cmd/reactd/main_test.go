package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"react/internal/buffer"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/service"
)

// TestStalledHeaderWriteDisconnected pins the slowloris fix: a client that
// opens a connection and dribbles half a request header must be
// disconnected once ReadHeaderTimeout elapses, not parked forever.
func TestStalledHeaderWriteDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), 150*time.Millisecond)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: the header section never terminates.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("server answered an unfinished request")
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v: server never disconnected the stalled client", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Errorf("disconnect took %v, want roughly the 150ms ReadHeaderTimeout", elapsed)
	}

	// A well-formed request right after still works: the timeout hit one
	// connection, not the listener.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestShutdownReleasesParkedLongPoll: Shutdown waits for active handlers,
// and a long-poll parked on a running view is one. The daemon's server
// releases its waiters when shutdown begins, so the drain returns
// promptly instead of sitting out the 60 s wait.
func TestShutdownReleasesParkedLongPoll(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	// A run whose only cell blocks in its constructor stays running.
	run := srv.Submit(&scenario.Spec{
		Name:     "reactd-blocker",
		Trace:    scenario.TraceSpec{Gen: "steady", Mean: 0.01, Duration: 10},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers: []scenario.BufferSpec{{Label: "blocker", New: func() buffer.Buffer {
			started <- struct{}{}
			<-release
			return buffer.NewStatic(buffer.StaticConfig{Name: "blocker", C: 1e-3, VMax: 3.6})
		}}},
	}, scenario.RunOptions{})
	<-started

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	hs := newDaemonServer("", srv, srv, 10*time.Second)
	go hs.Serve(ln)

	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/runs/" + run.ID + "?wait=60s")
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); parkedWaiters(t, base) != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the long-poll never parked")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("shutdown took %v with a parked long-poll, want prompt", took)
	}
	if code := <-answered; code != http.StatusOK {
		t.Errorf("parked long-poll answered %d, want 200", code)
	}
}

// parkedWaiters reads react_view_waiters from the daemon's /metrics.
func parkedWaiters(t *testing.T, base string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples["react_view_waiters"]
}
