package instrument

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Key protects the SOAP channel between context monitoring code and the
// runtime detector. Per §III-C it has two parts: a DetectorID generated at
// install time (filters out monitoring code instrumented by a different
// detector, e.g. in a downloaded pre-instrumented document), and an
// InstrumentationKey generated per document.
type Key struct {
	DetectorID string
	InstrKey   string
}

// String renders the wire form "DetectorID:InstrumentationKey".
func (k Key) String() string { return k.DetectorID + ":" + k.InstrKey }

// ParseKey splits a wire-form key.
func ParseKey(s string) (Key, error) {
	det, ik, ok := strings.Cut(s, ":")
	if !ok || det == "" || ik == "" {
		return Key{}, fmt.Errorf("malformed key %q", s)
	}
	return Key{DetectorID: det, InstrKey: ik}, nil
}

const keyBytes = 12

// randHex reads from rng (crypto/rand when nil) and hex-encodes.
func randHex(rng io.Reader, n int) (string, error) {
	if rng == nil {
		rng = rand.Reader
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return "", fmt.Errorf("key material: %w", err)
	}
	return hex.EncodeToString(buf), nil
}

// NewDetectorID generates an install-time detector identity.
func NewDetectorID(rng io.Reader) (string, error) { return randHex(rng, keyBytes) }

// NewInstrKey generates a per-document instrumentation key.
func NewInstrKey(rng io.Reader) (string, error) { return randHex(rng, keyBytes) }

// DocRecord describes one instrumented document in the registry. A
// journaled context transition carries all of it, so an offline replay
// rebuilds the records it needs from the journal (detect.Replay).
type DocRecord struct {
	// DocID is the caller-chosen identity (typically a path or corpus id).
	DocID string
	// InstrKey is the per-document key.
	InstrKey string
	// StaticVector is the normalized static feature vector [F1..F5]
	// extracted by the front-end; the runtime detector folds it into the
	// malscore.
	StaticVector [5]int
}

// Registry maintains the mapping between instrumented documents and keys
// (§III-C: "We also maintain a mapping between instrumented document and
// key"). It is shared, conceptually, between the front-end (writes) and the
// runtime detector (reads).
//
// A record lives as long as its instrumented artifact: whoever holds the
// artifact (the pipeline for one submission, or its front-end cache while
// the entry is resident) removes the record when it lets the artifact go.
// Resubmitting the same bytes is a new scan under a new key, never a
// duplicate: every instrumentation is one record.
type Registry struct {
	mu       sync.RWMutex
	byKey    map[string]DocRecord
	detector string
}

// NewRegistry returns a registry bound to a detector identity.
func NewRegistry(detectorID string) *Registry {
	return &Registry{
		byKey:    make(map[string]DocRecord),
		detector: detectorID,
	}
}

// DetectorID returns the bound detector identity.
func (r *Registry) DetectorID() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.detector
}

// ErrDuplicate is returned when an instrumentation key is already
// registered. Keys are 96 random bits, so this is a collision, and a retry
// draws a fresh key.
var ErrDuplicate = errors.New("instrumentation key already registered")

// Register records an instrumented document. It fails with ErrDuplicate if
// the instrumentation key is already present.
func (r *Registry) Register(rec DocRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.byKey[rec.InstrKey]; exists {
		return ErrDuplicate
	}
	r.byKey[rec.InstrKey] = rec
	return nil
}

// LookupKey resolves an instrumentation key to its document record.
func (r *Registry) LookupKey(instrKey string) (DocRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.byKey[instrKey]
	return rec, ok
}

// Remove drops a record (de-instrumentation, or the artifact's release).
func (r *Registry) Remove(instrKey string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byKey, instrKey)
}

// Len returns the number of registered documents.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKey)
}

// Validate checks a wire-form key: the DetectorID must match and the
// InstrumentationKey must be registered. This is the detector-side check;
// any failure is treated as a fake message (zero tolerance).
func (r *Registry) Validate(wire string) (DocRecord, error) {
	k, err := ParseKey(wire)
	if err != nil {
		return DocRecord{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if k.DetectorID != r.detector {
		return DocRecord{}, fmt.Errorf("foreign detector id %q", k.DetectorID)
	}
	rec, ok := r.byKey[k.InstrKey]
	if !ok {
		return DocRecord{}, fmt.Errorf("unknown instrumentation key")
	}
	return rec, nil
}
