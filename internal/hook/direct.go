package hook

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"unicode/utf8"
)

// DirectSink delivers events to a Handler in the same process: the reader
// and the detector share an address space, so there is no socket to write.
// It behaves as a TCPClient dialled into a Server over that handler does:
// Seq counts per sink, events and decisions arrive as the JSON line codec
// would decode them, and a closed sink fails every call.
type DirectSink struct {
	handler Handler

	mu     sync.Mutex
	seq    int64
	closed bool
}

var _ Sink = (*DirectSink)(nil)

// NewDirectSink returns a Sink that calls handler on the caller's
// goroutine.
func NewDirectSink(handler Handler) *DirectSink {
	return &DirectSink{handler: handler}
}

// OnAPICall implements Sink.
func (s *DirectSink) OnAPICall(ev Event) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Decision{}, fmt.Errorf("hook send: connection closed")
	}
	s.seq++
	ev.Seq = s.seq
	if math.IsNaN(ev.MemMB) || math.IsInf(ev.MemMB, 0) {
		// JSON has no NaN or Inf; the wire client fails to encode the event.
		_, err := json.Marshal(ev.MemMB)
		return Decision{}, fmt.Errorf("hook marshal: %w", err)
	}
	ev.API = jsonString(ev.API)
	if len(ev.Args) == 0 {
		ev.Args = nil // omitempty: an empty list is not on the wire
	}
	for _, a := range ev.Args {
		if !utf8.ValidString(a) {
			args := make([]string, len(ev.Args)) // the caller's slice stays as it was
			for i, a := range ev.Args {
				args[i] = jsonString(a)
			}
			ev.Args = args
			break
		}
	}
	dec := s.handler(ev)
	dec.Action = Action(jsonString(string(dec.Action)))
	dec.Note = jsonString(dec.Note)
	return dec, nil
}

// Close implements Sink.
func (s *DirectSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// jsonString returns s as it reads after a JSON round trip: the encoder
// replaces each byte of invalid UTF-8 with U+FFFD.
func jsonString(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}
