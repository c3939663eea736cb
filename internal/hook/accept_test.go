package hook

import (
	"errors"
	"net"
	"testing"
	"time"
)

// acceptStep is one scripted Accept outcome of a fakeListener.
type acceptStep struct {
	conn net.Conn
	err  error
}

// fakeListener feeds acceptLoop a scripted sequence of Accept results,
// then permanently reports net.ErrClosed.
type fakeListener struct {
	steps chan acceptStep
}

func (l *fakeListener) Accept() (net.Conn, error) {
	s, ok := <-l.steps
	if !ok {
		return nil, net.ErrClosed
	}
	return s.conn, s.err
}
func (l *fakeListener) Close() error   { return nil }
func (l *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// errTransient stands in for EMFILE/ECONNABORTED-class Accept failures.
var errTransient = errors.New("accept: too many open files")

// TestAcceptLoopRetriesTransientErrors is the regression test for the
// give-up-on-first-error bug: acceptLoop used to return on *any* Accept
// error, leaving the listener bound but dead — every later reader process
// unable to deliver hook events while the detector looked healthy. The
// loop must ride out transient failures and still accept the connection
// that follows.
func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	s := NewServer(func(ev Event) Decision { return Decision{Action: ActionAllow} })

	ln := &fakeListener{steps: make(chan acceptStep, 8)}
	ln.steps <- acceptStep{err: errTransient}
	ln.steps <- acceptStep{err: errTransient}
	client, server := net.Pipe()
	defer client.Close()
	ln.steps <- acceptStep{conn: server}

	done := make(chan struct{})
	go func() {
		s.acceptLoop(ln)
		close(done)
	}()

	// The loop must register the post-error connection, proving it
	// survived both transient failures.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection after transient Accept errors never registered: loop gave up")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("acceptLoop returned on a transient error")
	default:
	}

	// A closed listener is the one legitimate exit.
	close(ln.steps)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptLoop did not exit on net.ErrClosed")
	}
}

// TestAcceptLoopExitsOnServerClose: a non-ErrClosed error after Close
// (some platforms surface custom errors from closed listeners) must also
// end the loop instead of spinning on a dead listener.
func TestAcceptLoopExitsOnServerClose(t *testing.T) {
	s := NewServer(func(ev Event) Decision { return Decision{Action: ActionAllow} })
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	ln := &fakeListener{steps: make(chan acceptStep, 1)}
	ln.steps <- acceptStep{err: errTransient}

	done := make(chan struct{})
	go func() {
		s.acceptLoop(ln)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acceptLoop kept retrying after the server was closed")
	}
}

// TestAcceptLoopBackoffResets: the capped-backoff constants must stay
// sane — min positive, max bounding the doubling.
func TestAcceptLoopBackoffResets(t *testing.T) {
	if acceptBackoffMin <= 0 || acceptBackoffMax < acceptBackoffMin {
		t.Fatalf("backoff bounds [%v, %v] inverted", acceptBackoffMin, acceptBackoffMax)
	}
	b := acceptBackoffMin
	for i := 0; i < 64; i++ {
		if b *= 2; b > acceptBackoffMax {
			b = acceptBackoffMax
		}
	}
	if b != acceptBackoffMax {
		t.Fatalf("doubling never reaches the cap: %v", b)
	}
}
