package hook

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler decides one event. It runs on the detector side.
type Handler func(ev Event) Decision

// Accept-retry backoff bounds: a transient Accept failure (EMFILE under
// load, ECONNABORTED) is retried after acceptBackoffMin, doubling up to
// acceptBackoffMax, instead of silently abandoning the listener.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

// Server is the detector-side TCP endpoint receiving hook events: it serves
// a Handler (in practice detect.Detector.Event) over TCP. The detector
// itself starts none; the wire-parity tests and the traced benchmark flow
// start one to compare the wire path with DirectSink.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	addr     string
	closed   bool
	conns    map[net.Conn]bool
}

// NewServer returns an unstarted server.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, conns: make(map[net.Conn]bool)}
}

// Start binds a loopback port and accepts connections until Close.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return errors.New("hook server already started")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("hook server listen: %w", err)
	}
	s.listener = ln
	s.addr = ln.Addr().String()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound "127.0.0.1:port".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Close stops accepting and drops live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.listener = nil
	return err
}

// acceptLoop accepts until the listener is closed. A transient Accept
// error — file-descriptor exhaustion under load, an aborted handshake —
// must not end the loop: the listener stays bound, so giving up would
// leave every future reader process unable to deliver hook events while
// the detector looks healthy. Transient failures are retried with capped
// exponential backoff; only a closed listener (or Close) exits.
func (s *Server) acceptLoop(ln net.Listener) {
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	rd := bufio.NewReader(conn)
	wr := bufio.NewWriter(conn)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return
		}
		var ev Event
		dec := Decision{Action: ActionReject, Note: "malformed event"}
		if err := json.Unmarshal(line, &ev); err == nil {
			dec = s.handler(ev)
		}
		out, err := json.Marshal(dec)
		if err != nil {
			return
		}
		out = append(out, '\n')
		if _, err := wr.Write(out); err != nil {
			return
		}
		if err := wr.Flush(); err != nil {
			return
		}
	}
}
