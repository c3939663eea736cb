package soapsrv

// Notifier delivers one context notification to the detector and returns
// its ack status. A rejected notification comes back as an error whose text
// is the SOAP fault's ("soap envelope error: fault Server: …").
type Notifier interface {
	Send(n Notify) (string, error)
}

var (
	_ Notifier = (*Client)(nil)
	_ Notifier = (*Direct)(nil)
)

// Direct delivers notifications to a Handler in the same process: the
// detector and the reader share an address space, so there is no envelope
// to POST. It accepts and rejects exactly what Server does for a Client
// request: only enter/exit events reach the handler, strings arrive as the
// XML codec would decode them, and faults carry the same error text.
type Direct struct {
	handler Handler
}

// NewDirect returns a Notifier that calls handler on the caller's
// goroutine.
func NewDirect(handler Handler) *Direct {
	return &Direct{handler: handler}
}

// plainKeyMax bounds the keys Send passes through untouched. Keys this
// short cannot push the request envelope past maxRequestBytes even when
// every byte is escaped (5×, "&amp;"), so the wire would not truncate them.
const plainKeyMax = 64 << 10

// Send implements Notifier.
func (d *Direct) Send(n Notify) (string, error) {
	if !wireIdentity(n) {
		// Anything the codec could alter or reject takes the codec itself:
		// the request the server would read, decoded the way it decodes it.
		body, err := MarshalNotify(n)
		if err != nil {
			return "", err
		}
		if n, err = UnmarshalNotify(capBody(body)); err != nil {
			return replyFault("Client", err.Error())
		}
	}
	if err := d.handler(n, ""); err != nil {
		return replyFault("Server", err.Error())
	}
	return "ok", nil
}

// wireIdentity reports whether the XML round trip returns n unchanged: a
// valid event and a short key of printable ASCII, which the codec escapes
// and unescapes exactly.
func wireIdentity(n Notify) bool {
	if n.Event != EventEnter && n.Event != EventExit {
		return false
	}
	if len(n.Key) > plainKeyMax {
		return false
	}
	for i := 0; i < len(n.Key); i++ {
		if c := n.Key[i]; c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

// replyFault returns what a Client reads back from the fault the server
// writes for code and msg.
func replyFault(code, msg string) (string, error) {
	body, err := MarshalFault(code, msg)
	if err != nil {
		return "", err
	}
	return UnmarshalAck(capBody(body))
}

// capBody applies the read cap both sides of the wire put on a message.
func capBody(b []byte) []byte {
	if len(b) > maxRequestBytes {
		return b[:maxRequestBytes]
	}
	return b
}
