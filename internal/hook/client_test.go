package hook

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"
)

// silentServer accepts hook connections and never answers — the shape of a
// wedged or malicious detector endpoint. Returns the address to dial.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, read nothing, say nothing.
			defer conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestOnAPICallTimesOutOnSilentDetector proves the hook channel cannot wedge
// the reader process: a detector that accepts the connection but never sends
// a decision surfaces as a timeout error instead of blocking forever.
func TestOnAPICallTimesOutOnSilentDetector(t *testing.T) {
	c, err := Dial(silentServer(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.IOTimeout = 200 * time.Millisecond

	start := time.Now()
	_, err = c.OnAPICall(Event{API: "CreateFileW"})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("OnAPICall returned without error against a silent detector")
	}
	if ne, ok := err.(interface{ Unwrap() error }); !ok {
		t.Fatalf("error %v does not wrap the net error", err)
	} else if nerr, ok := ne.Unwrap().(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("wrapped error %v is not a net timeout", ne.Unwrap())
	}
	if !strings.Contains(err.Error(), "did not answer") {
		t.Errorf("error %q lacks the hook-channel timeout description", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; deadline not honoured", elapsed)
	}
}

// TestOnAPICallAfterCloseFails ensures a closed client reports a clean error
// rather than dereferencing a nil connection.
func TestOnAPICallAfterCloseFails(t *testing.T) {
	c, err := Dial(silentServer(t))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.OnAPICall(Event{API: "CreateFileW"}); err == nil {
		t.Fatal("OnAPICall on closed client succeeded")
	}
}

// TestDefaultTimeoutApplied checks the zero-value client picks up the
// package default rather than running without deadlines.
func TestDefaultTimeoutApplied(t *testing.T) {
	c := &TCPClient{}
	if got := c.timeout(); got != DefaultIOTimeout {
		t.Fatalf("zero-value timeout = %v, want %v", got, DefaultIOTimeout)
	}
	c.IOTimeout = -1
	if got := c.timeout(); got != 0 {
		t.Fatalf("negative IOTimeout = %v, want disabled (0)", got)
	}
}

// TestLateDecisionNotReadAsNextAnswer: a detector that answers an event
// only after the client's deadline must not have that stale decision read
// as the answer to the next event. The failed exchange closes the
// connection, so the next call fails instead of being confined wrongly.
func TestLateDecisionNotReadAsNextAnswer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	const timeout = 100 * time.Millisecond
	answered := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		if _, err := rd.ReadBytes('\n'); err != nil {
			return
		}
		time.Sleep(3 * timeout)
		_, _ = conn.Write([]byte(`{"action":"reject","note":"stale answer to event 1"}` + "\n"))
		close(answered)
		for {
			if _, err := rd.ReadBytes('\n'); err != nil {
				return
			}
			_, _ = conn.Write([]byte(`{"action":"allow"}` + "\n"))
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.IOTimeout = timeout

	if _, err := c.OnAPICall(Event{API: "connect"}); err == nil {
		t.Fatal("first call returned without error against a late detector")
	}
	<-answered
	dec, err := c.OnAPICall(Event{API: "NtCreateFile"})
	if dec.Action == ActionReject {
		t.Fatalf("second call received the stale decision %+v", dec)
	}
	if err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Fatalf("second call: err = %v, want connection closed", err)
	}
}
