// Package ids defines the identifiers used across the distributed system:
// node identifiers, activity identifiers, and generators for both.
//
// Activity identifiers are totally ordered. The order is used by the
// distributed garbage collector to break ties between activity clocks with
// equal values (the paper's "named" Lamport clock, §3.2), so it must be a
// strict total order that every process computes identically.
package ids

import (
	"fmt"
	"sync/atomic"
)

// NodeID identifies a process (an address space) in the distributed system.
// The paper calls these JVMs; the simulation calls them nodes.
type NodeID uint32

// String implements fmt.Stringer.
func (n NodeID) String() string {
	return fmt.Sprintf("node-%d", uint32(n))
}

// ActivityID uniquely identifies an active object in the whole distributed
// system. It is comparable (usable as a map key) and totally ordered via
// Less. The zero value is reserved as "no activity" (see Nil).
type ActivityID struct {
	// Node is the process on which the activity was created. Activities do
	// not migrate in this model, so Node is also where the activity lives.
	Node NodeID
	// Seq is the per-node creation sequence number, starting at 1. Seq
	// 0 names the node's root referencer, the owner of its handles.
	Seq uint32
}

// Nil is the zero ActivityID, meaning "no activity".
var Nil ActivityID

// IsNil reports whether the identifier is the reserved zero value.
func (a ActivityID) IsNil() bool {
	return a == ActivityID{}
}

// Less defines the global total order on activity identifiers.
func (a ActivityID) Less(b ActivityID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Seq < b.Seq
}

// Compare returns -1, 0 or +1 following the same order as Less.
func (a ActivityID) Compare(b ActivityID) int {
	switch {
	case a == b:
		return 0
	case a.Less(b):
		return -1
	default:
		return 1
	}
}

// String implements fmt.Stringer. Examples: "A2.7" is the 7th activity
// created on node 2.
func (a ActivityID) String() string {
	if a.IsNil() {
		return "A<nil>"
	}
	return fmt.Sprintf("A%d.%d", uint32(a.Node), a.Seq)
}

// Generator hands out fresh activity identifiers for one node. It is safe
// for concurrent use.
type Generator struct {
	node NodeID
	next atomic.Uint32
}

// NewGenerator returns a generator producing identifiers scoped to node.
func NewGenerator(node NodeID) *Generator {
	return &Generator{node: node}
}

// Node returns the node the generator allocates for.
func (g *Generator) Node() NodeID {
	return g.node
}

// Next returns a fresh, never-before-returned activity identifier.
func (g *Generator) Next() ActivityID {
	return ActivityID{Node: g.node, Seq: g.next.Add(1)}
}

// SkipTo advances the generator so the next identifier returned by Next
// has Seq at least first. Recovery re-creates activities under their
// original identifiers; skipping past the highest restored sequence
// keeps fresh spawns on the same node from colliding with them. SkipTo
// never moves the generator backwards.
func (g *Generator) SkipTo(first uint32) {
	if first == 0 {
		return
	}
	want := first - 1
	for {
		cur := g.next.Load()
		if cur >= want || g.next.CompareAndSwap(cur, want) {
			return
		}
	}
}

// NodeGenerator hands out fresh node identifiers. It is safe for concurrent
// use.
type NodeGenerator struct {
	next atomic.Uint32
}

// Next returns a fresh node identifier (starting at 1; 0 is reserved).
func (g *NodeGenerator) Next() NodeID {
	return NodeID(g.next.Add(1))
}

// SkipTo advances the generator so the next identifier returned by Next is
// at least first. Processes sharing one network use disjoint ranges so
// their identifiers (and the total order built on them) never collide.
// SkipTo never moves the generator backwards.
func (g *NodeGenerator) SkipTo(first NodeID) {
	if first == 0 {
		return
	}
	want := uint32(first) - 1
	for {
		cur := g.next.Load()
		if cur >= want || g.next.CompareAndSwap(cur, want) {
			return
		}
	}
}

// FutureID identifies a future on the node that created it (its *home*
// node: where the asynchronous call originated and where the result
// update is first delivered). Futures are first-class wire values, so the
// identifier — like ActivityID — must be meaningful system-wide. The zero
// value is reserved as "no future" (a one-way call).
type FutureID struct {
	// Node is the home node: the process that created the future and the
	// root of its value-propagation chain.
	Node NodeID
	// Seq is the per-node creation sequence number, starting at 1.
	Seq uint32
}

// IsZero reports whether the identifier is the reserved "no future" value.
func (f FutureID) IsZero() bool { return f == FutureID{} }

// String implements fmt.Stringer. Example: "F2.7" is the 7th future
// created on node 2.
func (f FutureID) String() string {
	if f.IsZero() {
		return "F<nil>"
	}
	return fmt.Sprintf("F%d.%d", uint32(f.Node), f.Seq)
}
