package hook

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// Sink receives captured API calls and returns confinement decisions. The
// reader process talks to a Sink: DirectSink when the detector shares its
// process, TCPClient when it does not, and fakes in tests.
type Sink interface {
	// OnAPICall reports one call synchronously.
	OnAPICall(ev Event) (Decision, error)
	// Close releases the channel.
	Close() error
}

// DefaultIOTimeout bounds each send/receive exchange with the detector. The
// hook channel is synchronous — the reader process blocks on every decision —
// so a detector that accepts the connection but never answers would otherwise
// wedge the reader forever.
const DefaultIOTimeout = 5 * time.Second

// TCPClient streams events to the detector over a TCP connection, one JSON
// line per event, reading one JSON decision line back. This mirrors the
// hook DLL's socket in §III-E ("When the hook DLL is injected, its first
// job is to set up a TCP connection to the runtime detector").
type TCPClient struct {
	// IOTimeout bounds each write and each decision read. Zero means
	// DefaultIOTimeout; negative disables deadlines (tests that single-step
	// the detector use this).
	IOTimeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	rd   *bufio.Reader
	seq  int64
}

var _ Sink = (*TCPClient)(nil)

// Dial connects to the detector's hook endpoint.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("hook dial %s: %w", addr, err)
	}
	return &TCPClient{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// timeout returns the effective per-operation timeout (0 = disabled).
func (c *TCPClient) timeout() time.Duration {
	switch {
	case c.IOTimeout == 0:
		return DefaultIOTimeout
	case c.IOTimeout < 0:
		return 0
	default:
		return c.IOTimeout
	}
}

// deadline returns the absolute deadline for the next I/O operation, or the
// zero time when deadlines are disabled.
func (c *TCPClient) deadline() time.Time {
	d := c.timeout()
	if d == 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// OnAPICall implements Sink. A failed exchange closes the connection: a
// decision that arrives after the deadline would otherwise be read as the
// answer to the next event, so every later call fails instead.
func (c *TCPClient) OnAPICall(ev Event) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return Decision{}, fmt.Errorf("hook send: connection closed")
	}
	c.seq++
	ev.Seq = c.seq
	line, err := json.Marshal(ev)
	if err != nil {
		// Nothing was written; the channel is still in step.
		return Decision{}, fmt.Errorf("hook marshal: %w", err)
	}
	dec, err := c.exchange(append(line, '\n'))
	if err != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	return dec, err
}

// exchange writes one event line and reads its decision.
func (c *TCPClient) exchange(line []byte) (Decision, error) {
	if err := c.conn.SetWriteDeadline(c.deadline()); err != nil {
		return Decision{}, fmt.Errorf("hook send: %w", err)
	}
	if _, err := c.conn.Write(line); err != nil {
		return Decision{}, fmt.Errorf("hook send: %w", err)
	}
	if err := c.conn.SetReadDeadline(c.deadline()); err != nil {
		return Decision{}, fmt.Errorf("hook recv: %w", err)
	}
	resp, err := c.rd.ReadBytes('\n')
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return Decision{}, fmt.Errorf("hook recv: detector did not answer within %v: %w", c.timeout(), err)
		}
		return Decision{}, fmt.Errorf("hook recv: %w", err)
	}
	var dec Decision
	if err := json.Unmarshal(resp, &dec); err != nil {
		return Decision{}, fmt.Errorf("hook decode: %w", err)
	}
	return dec, nil
}

// Close implements Sink.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// AllowAllSink is a Sink that approves everything and records nothing; it
// models an unprotected machine (baseline runs, Figure 8 measurements).
type AllowAllSink struct{}

var _ Sink = AllowAllSink{}

// OnAPICall implements Sink.
func (AllowAllSink) OnAPICall(Event) (Decision, error) { return Decision{Action: ActionAllow}, nil }

// Close implements Sink.
func (AllowAllSink) Close() error { return nil }

// RecordingSink captures events in memory and allows everything. Tests and
// context-free baselines use it.
type RecordingSink struct {
	mu     sync.Mutex
	events []Event
}

var _ Sink = (*RecordingSink)(nil)

// OnAPICall implements Sink.
func (s *RecordingSink) OnAPICall(ev Event) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev.Seq = int64(len(s.events) + 1)
	s.events = append(s.events, ev)
	return Decision{Action: ActionAllow}, nil
}

// Close implements Sink.
func (s *RecordingSink) Close() error { return nil }

// Events returns a copy of captured events.
func (s *RecordingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}
