// Package soapsrv implements the tiny SOAP 1.1 service the paper builds
// into its runtime detector ("a tiny SOAP server is built into the detector
// enabling the communication with the context monitoring code
// synchronously"), plus the matching client invoked by the SOAP.request
// Javascript API inside documents. Here every reader shares the
// detector's process and delivers the same notifications through Direct,
// with the same acceptance rules and fault text; Server and Client stay
// as the wire reference Direct is tested against.
//
// Only the one operation the system needs is exposed: a context
// notification carrying an event ("enter" or "exit"), the protection key
// ("DetectorID:InstrumentationKey"), and an opaque document tag.
package soapsrv

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
)

// Event kinds carried in context notifications.
const (
	EventEnter = "enter"
	EventExit  = "exit"
)

// ErrEnvelope is wrapped by all envelope codec errors.
var ErrEnvelope = errors.New("soap envelope error")

// Notify is the single SOAP operation: a Javascript context transition.
type Notify struct {
	// Event is EventEnter or EventExit.
	Event string
	// Key is "DetectorID:InstrumentationKey".
	Key string
	// Seq is a per-document sequence number assigned by the context
	// monitoring code, letting the detector pair enters with exits.
	Seq int
	// PID identifies the reader process hosting the Javascript engine, so
	// a detector serving several concurrent readers can attribute the
	// context transition to the right process. Every sender sets it: the
	// detector has no unspecified-process fallback.
	PID int
}

type envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    body     `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type body struct {
	Notify *notifyXML `xml:"urn:pdfshield:ctx Notify,omitempty"`
	Ack    *ackXML    `xml:"urn:pdfshield:ctx Ack,omitempty"`
	Fault  *faultXML  `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault,omitempty"`
}

type notifyXML struct {
	Event string `xml:"urn:pdfshield:ctx Event"`
	Key   string `xml:"urn:pdfshield:ctx Key"`
	Seq   int    `xml:"urn:pdfshield:ctx Seq"`
	PID   int    `xml:"urn:pdfshield:ctx PID,omitempty"`
}

type ackXML struct {
	Status string `xml:"urn:pdfshield:ctx Status"`
}

type faultXML struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
}

// MarshalNotify renders a Notify as a SOAP request body.
func MarshalNotify(n Notify) ([]byte, error) {
	env := envelope{Body: body{Notify: &notifyXML{Event: n.Event, Key: n.Key, Seq: n.Seq, PID: n.PID}}}
	return marshalEnvelope(env)
}

// MarshalAck renders an acknowledgement response.
func MarshalAck(status string) ([]byte, error) {
	env := envelope{Body: body{Ack: &ackXML{Status: status}}}
	return marshalEnvelope(env)
}

// MarshalFault renders a SOAP fault.
func MarshalFault(code, msg string) ([]byte, error) {
	env := envelope{Body: body{Fault: &faultXML{Code: code, String: msg}}}
	return marshalEnvelope(env)
}

func marshalEnvelope(env envelope) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	if err := enc.Encode(env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelope, err)
	}
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEnvelope, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalNotify parses a SOAP request body into a Notify.
func UnmarshalNotify(data []byte) (Notify, error) {
	var env envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return Notify{}, fmt.Errorf("%w: %v", ErrEnvelope, err)
	}
	if env.Body.Notify == nil {
		return Notify{}, fmt.Errorf("%w: missing Notify element", ErrEnvelope)
	}
	n := env.Body.Notify
	if n.Event != EventEnter && n.Event != EventExit {
		return Notify{}, fmt.Errorf("%w: invalid event %q", ErrEnvelope, n.Event)
	}
	return Notify{Event: n.Event, Key: n.Key, Seq: n.Seq, PID: n.PID}, nil
}

// UnmarshalAck parses a response, returning the ack status or the fault as
// an error.
func UnmarshalAck(data []byte) (string, error) {
	var env envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return "", fmt.Errorf("%w: %v", ErrEnvelope, err)
	}
	if env.Body.Fault != nil {
		return "", fmt.Errorf("%w: fault %s: %s", ErrEnvelope, env.Body.Fault.Code, env.Body.Fault.String)
	}
	if env.Body.Ack == nil {
		return "", fmt.Errorf("%w: missing Ack element", ErrEnvelope)
	}
	return env.Body.Ack.Status, nil
}
