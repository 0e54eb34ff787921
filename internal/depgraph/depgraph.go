// Package depgraph extracts a parametric communication dependency graph
// from one instrumented simulation run.
//
// A Builder attaches to the machine's instrumentation seam (am.Hooks,
// clock and wire events included) and streams the per-processor event
// sequences into a compact DAG: nodes are completion instants (an o_send
// charge, a transmit-context reservation, a wire arrival, an o_recv
// charge, a window-credit return, a quiesce join), and each in-edge
// carries a weight of the form
//
//	c + slope·Δaxis
//
// where c is a constant in simulated nanoseconds and axis is one of the
// LogGP deltas the paper sweeps (Δo, ΔL, Δg) with unit slope. Local
// computation and host sleep fold into the constant part of the next
// node's in-edge, so the graph stays proportional to the number of
// messages, not the number of clock advances. Evaluating the longest
// path to the sink at a given (Δo, ΔL, Δg) — internal/tolerance's job —
// predicts the run's makespan at that operating point without
// re-simulating.
//
// The graph is exact for deterministic schedules up to the first
// critical-path reordering that changes the *set* of dependencies (a
// poll happening in a different order, a lock acquired by a different
// contender, a window credit overtaking a reply). See DESIGN.md §14 for
// the exactness/validity boundary.
//
// Construction is allocation-free on the steady path: nodes and edges
// live in fixed-size chunked arenas, per-stream FIFOs reuse their
// backing arrays, and all hook methods are //repro:hotpath functions
// checked by reprolint's hotpathalloc analyzer. The builder rejects runs
// it cannot model faithfully (fault injection, the reliability layer's
// retransmissions) by recording an error surfaced at Seal.
package depgraph

import (
	"unsafe"

	"repro/internal/sim"
)

// Axis names the LogGP delta a parametric edge weight tracks.
type Axis uint8

const (
	// AxisNone marks a constant-weight edge.
	AxisNone Axis = iota
	// AxisO tracks Δo (per-message send/receive overhead).
	AxisO
	// AxisL tracks ΔL (wire latency).
	AxisL
	// AxisG tracks Δg (transmit-context gap).
	AxisG
)

func (a Axis) String() string {
	switch a {
	case AxisO:
		return "o"
	case AxisL:
		return "L"
	case AxisG:
		return "g"
	}
	return ""
}

// Kind classifies a node's completion instant.
type Kind uint8

const (
	// KindOSend is the end of a message's o_send charge at the sender.
	KindOSend Kind = iota
	// KindTx is a message's injection instant at the sender's NIC.
	KindTx
	// KindWire is a message's arrival instant at the receiver's NIC.
	KindWire
	// KindRecv is the end of a message's o_recv charge at the receiver.
	KindRecv
	// KindCredit is the arrival of a firmware window credit back at the
	// requester.
	KindCredit
	// KindJoin merges a processor's frontier with pending credit arrivals
	// (a store-sync quiesce, or an internal fold keeping state bounded).
	KindJoin
	// KindSink is the single makespan node every processor's final
	// position feeds.
	KindSink
)

func (k Kind) String() string {
	switch k {
	case KindOSend:
		return "osend"
	case KindTx:
		return "tx"
	case KindWire:
		return "wire"
	case KindRecv:
		return "recv"
	case KindCredit:
		return "credit"
	case KindJoin:
		return "join"
	case KindSink:
		return "sink"
	}
	return "node?"
}

const (
	chunkBits = 13
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// node is one completion instant. edge heads the in-edge list; val is
// the instant observed in the instrumented baseline run (the graph
// evaluated at Δ = 0 must reproduce it — the builder's self-check).
type node struct {
	edge int32
	proc int32
	val  sim.Time
	kind Kind
}

// edge is one dependency: this node happens no earlier than
// pred + c + Δaxis.
type edge struct {
	pred int32
	next int32
	c    sim.Time
	axis Axis
}

// Graph is the finished DAG. Node indices are assigned in construction
// order, which is topological: every edge's predecessor index is smaller
// than its node's index (the engine executes causes before effects), so
// a single ascending scan evaluates the longest path.
type Graph struct {
	nodeChunks [][]node
	edgeChunks [][]edge
	nn, ne     int32
	procs      int
	elapsed    sim.Time
	sink       int32
}

// NumNodes is the node count, sink included.
func (g *Graph) NumNodes() int { return int(g.nn) }

// NumEdges is the edge count.
func (g *Graph) NumEdges() int { return int(g.ne) }

// Procs is the simulated machine size the graph was extracted from.
func (g *Graph) Procs() int { return g.procs }

// Elapsed is the recorded makespan of the instrumented run.
func (g *Graph) Elapsed() sim.Time { return g.elapsed }

// Sink is the index of the makespan node (the last node).
func (g *Graph) Sink() int32 { return g.sink }

// Node reports node i's kind, owning processor (-1 for the sink), and
// recorded baseline completion time.
func (g *Graph) Node(i int32) (Kind, int, sim.Time) {
	n := g.nodePtr(i)
	return n.kind, int(n.proc), n.val
}

// InEdges calls fn for each in-edge of node i: pred is the predecessor
// node (-1 for the virtual time-zero origin), c the constant weight in
// nanoseconds, and axis the delta the edge tracks with unit slope.
// Edges are visited in reverse insertion order.
func (g *Graph) InEdges(i int32, fn func(pred int32, c sim.Time, axis Axis)) {
	for ei := g.nodePtr(i).edge; ei >= 0; {
		e := &g.edgeChunks[ei>>chunkBits][ei&chunkMask]
		fn(e.pred, e.c, e.axis)
		ei = e.next
	}
}

// MemBytes is the arena footprint of the graph in bytes (whole chunks,
// matching what the builder actually reserved).
func (g *Graph) MemBytes() int64 {
	nb := int64(len(g.nodeChunks)) * chunkSize * int64(unsafe.Sizeof(node{}))
	eb := int64(len(g.edgeChunks)) * chunkSize * int64(unsafe.Sizeof(edge{}))
	return nb + eb
}

//repro:hotpath
func (g *Graph) nodePtr(i int32) *node {
	return &g.nodeChunks[i>>chunkBits][i&chunkMask]
}

//repro:hotpath
func (g *Graph) newNode(kind Kind, proc int32, val sim.Time) int32 {
	i := g.nn
	if int(i>>chunkBits) == len(g.nodeChunks) {
		g.growNodes()
	}
	n := &g.nodeChunks[i>>chunkBits][i&chunkMask]
	n.edge = -1
	n.proc = proc
	n.val = val
	n.kind = kind
	g.nn++
	return i
}

//repro:hotpath
func (g *Graph) addEdge(n, pred int32, c sim.Time, axis Axis) {
	i := g.ne
	if int(i>>chunkBits) == len(g.edgeChunks) {
		g.growEdges()
	}
	nd := g.nodePtr(n)
	e := &g.edgeChunks[i>>chunkBits][i&chunkMask]
	e.pred = pred
	e.next = nd.edge
	e.c = c
	e.axis = axis
	nd.edge = i
	g.ne++
}

// growNodes reserves the next node chunk: one allocation per chunkSize
// nodes, off the per-event steady path.
func (g *Graph) growNodes() {
	g.nodeChunks = append(g.nodeChunks, make([]node, chunkSize))
}

// growEdges reserves the next edge chunk.
func (g *Graph) growEdges() {
	g.edgeChunks = append(g.edgeChunks, make([]edge, chunkSize))
}
