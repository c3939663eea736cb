package soapsrv

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Handler processes a context notification. Returning an error produces a
// SOAP fault; the detector's zero-tolerance policy to fake messages is
// implemented in the handler, not here.
type Handler func(n Notify, remote string) error

// Server is the wire form of the paper's tiny SOAP server: it serves a
// Handler (in practice detect.Detector.Notify) over HTTP. The detector
// itself starts none; the wire-parity tests and the traced benchmark flow
// start one to compare the wire path with Direct.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	httpSrv  *http.Server
	addr     string
}

// NewServer returns an unstarted server.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler}
}

// Start binds a loopback port and serves until Close.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return errors.New("soap server already started")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("soap server listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ctx", s.serveCtx)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.listener = ln
	s.httpSrv = srv
	s.addr = ln.Addr().String()
	go func() {
		// Serve exits with ErrServerClosed on Close; other errors have no
		// receiver and the server is simply dead, which tests observe as
		// connection failures.
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address ("127.0.0.1:port").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// URL returns the endpoint URL for clients.
func (s *Server) URL() string { return "http://" + s.Addr() + "/ctx" }

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	s.httpSrv = nil
	s.listener = nil
	return err
}

const maxRequestBytes = 1 << 20

func (s *Server) serveCtx(w http.ResponseWriter, r *http.Request) {
	defer func() { _ = r.Body.Close() }()
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		writeFault(w, "Client", "unreadable body")
		return
	}
	n, err := UnmarshalNotify(data)
	if err != nil {
		writeFault(w, "Client", err.Error())
		return
	}
	if err := s.handler(n, r.RemoteAddr); err != nil {
		writeFault(w, "Server", err.Error())
		return
	}
	ack, err := MarshalAck("ok")
	if err != nil {
		writeFault(w, "Server", err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write(ack)
}

func writeFault(w http.ResponseWriter, code, msg string) {
	body, err := MarshalFault(code, msg)
	if err != nil {
		http.Error(w, msg, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(body)
}
