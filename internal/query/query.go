// Package query defines the group-query abstraction shared by every
// substrate in the repository.
//
// All tcast algorithms are written against the Querier interface: one call
// polls one group (bin) of nodes with the predicate and returns only the
// information an RCD initiator can observe. The same algorithm code
// therefore runs unchanged on the fast abstract channel (package fastsim),
// on the packet-level radio simulation (package pollcast), and on the
// emulated mote testbed (package motelab).
package query

import "fmt"

// CollisionModel selects what the initiator's radio can distinguish when a
// group replies, per Section III-A of the paper.
type CollisionModel int

const (
	// OnePlus ("1+"): the initiator senses only silence or channel
	// activity (RSSI/CCA/HACK energy). Activity means at least one
	// positive node.
	OnePlus CollisionModel = iota
	// TwoPlus ("2+"): the radio can additionally lock onto and decode a
	// single frame. Decoding yields the replier's identity; detected
	// activity without a decode implies at least two repliers.
	TwoPlus
)

// String implements fmt.Stringer.
func (m CollisionModel) String() string {
	switch m {
	case OnePlus:
		return "1+"
	case TwoPlus:
		return "2+"
	default:
		return fmt.Sprintf("CollisionModel(%d)", int(m))
	}
}

// Kind classifies the outcome of one group query.
type Kind int

const (
	// Empty: silence — no positive node in the queried bin (modulo radio
	// false negatives on lossy substrates).
	Empty Kind = iota
	// Active: channel activity under the 1+ model — at least one
	// positive node replied, count unknown.
	Active
	// Decoded: under the 2+ model one reply frame was received
	// correctly, identifying a single positive node. With the capture
	// effect present, the bin may contain further positives.
	Decoded
	// Collision: under the 2+ model activity was detected but no frame
	// could be decoded — at least two positive nodes replied.
	Collision
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Active:
		return "active"
	case Decoded:
		return "decoded"
	case Collision:
		return "collision"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NumKinds is the number of response kinds; Kind values are contiguous in
// [0, NumKinds), so they can index fixed-size per-kind arrays.
const NumKinds = 4

// KindCounts partitions a stream of poll outcomes by response Kind. It is
// the single definition of the kind partition shared by the trace recorder
// and the metrics layer, so the two can never disagree about how polls are
// classified.
type KindCounts struct {
	Empty      int
	Active     int
	Decoded    int
	Collisions int
}

// Observe tallies one response kind. Out-of-range kinds panic: a Kind
// outside [0, NumKinds) can only come from a substrate bug, and silently
// dropping it would let the per-kind counts drift away from the number of
// polls actually issued.
func (c *KindCounts) Observe(k Kind) {
	switch k {
	case Empty:
		c.Empty++
	case Active:
		c.Active++
	case Decoded:
		c.Decoded++
	case Collision:
		c.Collisions++
	default:
		panic(fmt.Sprintf("query: KindCounts.Observe of out-of-range kind %v", k))
	}
}

// Total returns the number of observed polls. Because Observe panics on
// out-of-range kinds, the per-kind counts always partition Total exactly:
// Total equals the number of Observe calls that returned.
func (c KindCounts) Total() int {
	return c.Empty + c.Active + c.Decoded + c.Collisions
}

// Response is what the initiator learns from one group query.
type Response struct {
	Kind Kind
	// DecodedID is the identified positive node; valid only when
	// Kind == Decoded.
	DecodedID int
}

// MinPositives returns the guaranteed lower bound on positive nodes in the
// queried bin implied by the response alone.
func (r Response) MinPositives() int {
	switch r.Kind {
	case Empty:
		return 0
	case Active, Decoded:
		return 1
	case Collision:
		return 2
	default:
		return 0
	}
}

// MaxPositives returns the guaranteed upper bound on positive nodes in the
// queried bin implied by the response: Empty proves zero, and a Decoded
// response without the capture effect proves exactly one (the decode would
// have been destroyed by any second replier). Every other outcome bounds
// the count only by the bin size. Knowledge.Apply and the audit layer's
// ground-truth checker both derive their exclusion logic from this helper
// so the two can never diverge.
func (r Response) MaxPositives(bin []int, traits Traits) int {
	switch r.Kind {
	case Empty:
		return 0
	case Decoded:
		if !traits.CaptureEffect {
			return 1
		}
		return len(bin)
	default:
		return len(bin)
	}
}

// Traits describes what a substrate's radio can do; algorithms consult it
// to decide how much they may infer from each response.
type Traits struct {
	Model CollisionModel
	// CaptureEffect reports whether a decoded frame may hide further
	// simultaneous repliers (CC2420-style capture). When false, a
	// Decoded response proves the bin held exactly one positive node,
	// so all other bin members may be excluded as negatives.
	CaptureEffect bool
}

// Querier is one predicate-query session against a fixed population. A
// single Query call polls the nodes listed in bin and reports what the
// initiator's radio observed. Implementations are not required to be safe
// for concurrent use.
type Querier interface {
	Query(bin []int) Response
	Traits() Traits
}

// Wrapper is implemented by querier middleware (taps, retry, the fault
// injector) that delegates to an underlying Querier, so Walk can search a
// chain without knowing its stacking order.
type Wrapper interface {
	Unwrap() Querier
}

// Root follows Unwrap to the innermost Querier — the substrate below
// every middleware layer.
func Root(q Querier) Querier {
	root := q
	Walk(q, func(l Querier) bool { root = l; return true })
	return root
}

// Counting wraps a Querier and counts issued queries — the paper's cost
// metric.
type Counting struct {
	Q       Querier
	Queries int
}

// Query implements Querier, forwarding to the wrapped querier.
func (c *Counting) Query(bin []int) Response {
	c.Queries++
	return c.Q.Query(bin)
}

// Traits implements Querier.
func (c *Counting) Traits() Traits { return c.Q.Traits() }

// Unwrap implements Wrapper.
func (c *Counting) Unwrap() Querier { return c.Q }
