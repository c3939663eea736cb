package js

import "strings"

// ropeMinBytes is the byte length at or above which string `+` builds a
// rope node instead of copying both operands into a new string. The
// differential tests lower it to rope every concatenation and raise it to
// rope none; production code never changes it.
var ropeMinBytes = 4096

// rope is an unflattened string concatenation: left side, then right side.
// Each side is either a flat string (node nil) or another rope. Heap sprays
// build megabyte blocks as sled + payload; a rope shares the sled instead of
// copying it, and the bytes are produced only when something reads them.
//
// A rope is flattened at most once: the result is memoized in flat and both
// sides are dropped, so the node then behaves as a flat string. Nothing
// about a rope is visible to scripts — length, unit count and content are
// exactly those of the concatenated string.
type rope struct {
	ls, rs string
	ln, rn *rope
	n      int    // byte length
	flat   string // memoized flattening; set once, sides dropped

	// memoSub/memoHit memoize the last Contains query answered for this
	// node; "" means none yet.
	memoSub string
	memoHit bool
}

// ropeSide returns v's contents as a rope side: a flattened or flat value
// yields its string, an unflattened rope its node.
func ropeSide(v Value) (string, *rope) {
	if r := v.rope; r != nil {
		if r.flat != "" {
			return r.flat, nil
		}
		return "", r
	}
	return v.str, nil
}

// newRope joins two non-empty string values totalling n bytes.
func newRope(l, r Value, n int) *rope {
	ls, ln := ropeSide(l)
	rs, rn := ropeSide(r)
	// Appending a short piece to a rope whose outer leaf is short merges the
	// two leaves, so character-at-a-time loops add one node per
	// ropeMinBytes of text instead of one per iteration. Prepends mirror it.
	if ln != nil && rn == nil && ln.rn == nil && len(ln.rs)+len(rs) < ropeMinBytes {
		return &rope{ls: ln.ls, ln: ln.ln, rs: ln.rs + rs, n: n}
	}
	if rn != nil && ln == nil && rn.ln == nil && len(ls)+len(rn.ls) < ropeMinBytes {
		return &rope{ls: ls + rn.ls, rs: rn.rs, rn: rn.rn, n: n}
	}
	return &rope{ls: ls, ln: ln, rs: rs, rn: rn, n: n}
}

// ropePart is one pending piece of a leaf walk.
type ropePart struct {
	s string
	n *rope
}

// walk calls fn on every flat piece of r in order (in reverse order when
// reverse is set) until fn returns false. It keeps an explicit stack:
// left-deep `s += x` chains are as deep as the loop ran, and must not
// recurse.
func (r *rope) walk(reverse bool, fn func(string) bool) {
	stack := []ropePart{{n: r}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case p.n == nil:
			if p.s != "" && !fn(p.s) {
				return
			}
		case p.n.flat != "":
			if !fn(p.n.flat) {
				return
			}
		case reverse:
			stack = append(stack, ropePart{p.n.ls, p.n.ln}, ropePart{p.n.rs, p.n.rn})
		default:
			stack = append(stack, ropePart{p.n.rs, p.n.rn}, ropePart{p.n.ls, p.n.ln})
		}
	}
}

// flatten returns the rope's bytes, building them on the first call.
func (r *rope) flatten() string {
	if r.flat == "" {
		var b strings.Builder
		b.Grow(r.n)
		r.walk(false, func(s string) bool {
			b.WriteString(s)
			return true
		})
		r.flat = b.String()
		r.ls, r.rs, r.ln, r.rn = "", "", nil, nil
	}
	return r.flat
}

// sideEdge returns up to k bytes from the start (or, with tail, the end)
// of a rope side without flattening it.
func sideEdge(s string, n *rope, k int, tail bool) string {
	if n == nil {
		if len(s) <= k {
			return s
		}
		if tail {
			return s[len(s)-k:]
		}
		return s[:k]
	}
	var parts []string
	got := 0
	n.walk(tail, func(p string) bool {
		if need := k - got; len(p) > need {
			if tail {
				p = p[len(p)-need:]
			} else {
				p = p[:need]
			}
		}
		parts = append(parts, p)
		got += len(p)
		return got < k
	})
	if tail {
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
	}
	return strings.Join(parts, "")
}

// sideHas reports whether a rope side contains sub, given that a node
// side is already resolved: flat sides are searched directly, nodes answer
// from their memo (a flattened node fills it on first use).
func sideHas(s string, n *rope, sub string) bool {
	switch {
	case n == nil:
		return strings.Contains(s, sub)
	case n.memoSub != sub:
		n.memoSub, n.memoHit = sub, strings.Contains(n.flat, sub)
	}
	return n.memoHit
}

// unresolved reports whether node side n still needs a walk for sub.
func unresolved(n *rope, sub string) bool {
	return n != nil && n.memoSub != sub && n.flat == ""
}

// contains reports whether the rope's bytes contain the non-empty sub,
// without flattening. Every node's answer is memoized, so a spray block
// that shares an already-scanned sled costs a scan of its own new leaves
// plus the bytes around each leaf boundary. The walk is post-order on an
// explicit stack: children are resolved before their parent.
func (r *rope) contains(sub string) bool {
	stack := []*rope{r}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		if x.memoSub == sub {
			stack = stack[:len(stack)-1]
			continue
		}
		if x.flat != "" {
			x.memoSub, x.memoHit = sub, strings.Contains(x.flat, sub)
			stack = stack[:len(stack)-1]
			continue
		}
		if unresolved(x.ln, sub) || unresolved(x.rn, sub) {
			if unresolved(x.rn, sub) {
				stack = append(stack, x.rn)
			}
			if unresolved(x.ln, sub) {
				stack = append(stack, x.ln)
			}
			continue
		}
		k := len(sub) - 1
		x.memoSub, x.memoHit = sub, sideHas(x.ls, x.ln, sub) || sideHas(x.rs, x.rn, sub) ||
			strings.Contains(sideEdge(x.ls, x.ln, k, true)+sideEdge(x.rs, x.rn, k, false), sub)
		stack = stack[:len(stack)-1]
	}
	return r.memoHit
}
