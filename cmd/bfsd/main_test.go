package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// testLogger discards output; the logging path itself is covered by the
// slow-query tests in internal/server.
func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// freeAddrs reserves k distinct ephemeral ports for the daemon: it holds
// every listener open until all k addresses are read, so no two of them can
// be the same port, and only then closes them.
func freeAddrs(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func TestGraphFlags(t *testing.T) {
	g := graphFlags{}
	if err := g.Set("demo=kron:scale=10"); err != nil {
		t.Fatal(err)
	}
	if err := g.Set("eq=file:a=b.bin"); err != nil {
		t.Fatal(err)
	}
	if g["demo"] != "kron:scale=10" || g["eq"] != "file:a=b.bin" {
		t.Errorf("parsed %v", g)
	}
	if err := g.Set("demo=uniform:n=10"); err == nil {
		t.Error("duplicate name accepted")
	}
	for _, bad := range []string{"nospec", "=kron:scale=4", "", "=b"} {
		if err := g.Set(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunRequiresGraphs(t *testing.T) {
	if err := run(testLogger(), graphFlags{}, ":0", "", nil, false, 0, server.Config{}, 0, time.Second, time.Second); err == nil {
		t.Error("run with no graphs must fail")
	}
	if err := run(testLogger(), graphFlags{"g": "warp:n=1"}, ":0", "", nil, false, 0, server.Config{}, 0, time.Second, time.Second); err == nil {
		t.Error("run with a bad spec must fail")
	}
}

func TestNewLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "WARN", "error"} {
		if _, err := newLogger(nil, false, level); err != nil {
			t.Errorf("newLogger(%q): %v", level, err)
		}
	}
	if _, err := newLogger(nil, true, "loud"); err == nil {
		t.Error("bad level accepted")
	}
}

// TestRunServesAndDrains boots the daemon (with its debug listener) on
// free ports, queries both, then delivers SIGTERM and expects a clean
// drain that also takes the debug listener down.
func TestRunServesAndDrains(t *testing.T) {
	addrs := freeAddrs(t, 2)
	addr, debugAddr := addrs[0], addrs[1]

	done := make(chan error, 1)
	go func() {
		done <- run(testLogger(), graphFlags{"demo": "uniform:n=500,degree=6,seed=1"}, addr,
			debugAddr, nil, false, 0, server.Config{Workers: 2},
			server.DefaultSlowQuery, time.Second, 5*time.Second)
	}()

	base := "http://" + addr
	var up bool
	for i := 0; i < 200; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !up {
		t.Fatal("daemon never became healthy")
	}

	resp, err := http.Post(base+"/khop", "application/json",
		strings.NewReader(`{"graph":"demo","source":3,"hops":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Count int64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Count < 1 {
		t.Errorf("khop: status %d count %d", resp.StatusCode, qr.Count)
	}

	// The debug listener runs on its own port and serves the flight
	// recorder, which by now has the khop request above.
	dresp, err := http.Get("http://" + debugAddr + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Requests []struct {
			TraceID uint64 `json:"trace_id"`
			Kind    string `json:"kind"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&flight); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if len(flight.Requests) == 0 || flight.Requests[0].TraceID == 0 {
		t.Errorf("flight recorder empty or without trace ids: %+v", flight.Requests)
	}
	// The main listener must not expose the debug surface.
	if mresp, err := http.Get(base + "/debug/pprof/heap"); err == nil {
		if mresp.StatusCode == http.StatusOK {
			t.Error("main listener serves /debug/pprof/heap")
		}
		mresp.Body.Close()
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
	if _, err := http.Get("http://" + debugAddr + "/debug/flightrecorder"); err == nil {
		t.Error("debug listener still accepting after drain")
	}
}

// TestRunClusterMode boots two shard processes' worth of runShard plus a
// coordinator daemon serving one graph from them, queries it, then SIGTERMs
// the lot and expects every mode to drain cleanly.
func TestRunClusterMode(t *testing.T) {
	addrs := freeAddrs(t, 3)
	shardA, shardB, addr := addrs[0], addrs[1], addrs[2]

	shardDone := make(chan error, 2)
	for _, sa := range []string{shardA, shardB} {
		go func(sa string) {
			shardDone <- runShard(testLogger(), sa, 2)
		}(sa)
	}
	// The coordinator dials at startup, so wait for the shard listeners.
	for _, sa := range []string{shardA, shardB} {
		var up bool
		for i := 0; i < 200; i++ {
			if c, err := net.Dial("tcp", sa); err == nil {
				c.Close()
				up = true
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !up {
			t.Fatalf("shard %s never started listening", sa)
		}
	}

	done := make(chan error, 1)
	go func() {
		done <- run(testLogger(), graphFlags{"demo": "uniform:n=500,degree=6,seed=1"}, addr,
			"", []string{shardA, shardB}, false, 0, server.Config{Workers: 2},
			server.DefaultSlowQuery, time.Second, 5*time.Second)
	}()

	base := "http://" + addr
	var up bool
	for i := 0; i < 200; i++ {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !up {
		t.Fatal("daemon never became healthy")
	}

	resp, err := http.Post(base+"/bfs", "application/json",
		strings.NewReader(`{"graph":"demo","source":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Visited int64 `json:"visited"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Visited < 1 {
		t.Errorf("cluster bfs: status %d visited %d", resp.StatusCode, qr.Visited)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("coordinator drain returned %v", err)
			}
		case err := <-shardDone:
			if err != nil {
				t.Errorf("shard drain returned %v", err)
			}
		case <-deadline:
			t.Fatal("cluster did not drain after SIGTERM")
		}
	}
}
