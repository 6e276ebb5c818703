// Package dataflow provides the generic machinery shared by the shader IR
// analyses: dense bitvector sets and an iterative worklist solver for
// forward dataflow problems over an arbitrary successor graph.
//
// The package is deliberately dependency-free so both internal/shader (the
// must-write liveness proof that gates the parallel fragment engine) and
// internal/shader/analysis (the device-limit checker and lint diagnostics)
// can build on the same fixpoint engine without an import cycle.
//
// Lattices are bitvectors. A "must" problem meets with intersection and
// initialises non-entry nodes to top (all ones); a "may" problem meets with
// union and initialises to bottom (all zeros). The solver runs a classic
// worklist iteration to the least (respectively greatest) fixpoint; with
// monotone transfer functions over a finite lattice termination is
// guaranteed.
package dataflow

// BitSet is a fixed-width bitvector. The width is fixed at allocation; all
// operands of a binary operation must share it. Bits beyond the logical
// width may be set by Fill and are harmless as long as every operand was
// produced with the same width.
type BitSet []uint64

// NewBitSet returns an all-zeros set able to hold bits [0, n).
func NewBitSet(n int) BitSet {
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	return make(BitSet, words)
}

// Get reports whether bit i is set.
func (b BitSet) Get(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// Set sets bit i.
func (b BitSet) Set(i int) { b[i/64] |= 1 << uint(i%64) }

// Clear clears bit i.
func (b BitSet) Clear(i int) { b[i/64] &^= 1 << uint(i%64) }

// Fill sets every word to all-ones (top of a must lattice).
func (b BitSet) Fill() {
	for w := range b {
		b[w] = ^uint64(0)
	}
}

// CopyFrom overwrites b with o.
func (b BitSet) CopyFrom(o BitSet) { copy(b, o) }

// Clone returns an independent copy of b.
func (b BitSet) Clone() BitSet {
	c := make(BitSet, len(b))
	copy(c, b)
	return c
}

// Or sets b to b ∪ o.
func (b BitSet) Or(o BitSet) {
	for w := range b {
		b[w] |= o[w]
	}
}

// IntersectWith sets b to b ∩ o and reports whether b changed.
func (b BitSet) IntersectWith(o BitSet) bool {
	changed := false
	for w := range b {
		if nv := b[w] & o[w]; nv != b[w] {
			b[w] = nv
			changed = true
		}
	}
	return changed
}

// UnionWith sets b to b ∪ o and reports whether b changed.
func (b BitSet) UnionWith(o BitSet) bool {
	changed := false
	for w := range b {
		if nv := b[w] | o[w]; nv != b[w] {
			b[w] = nv
			changed = true
		}
	}
	return changed
}

// Problem describes one bitvector dataflow problem over a graph of N nodes.
//
// Transfer maps the node's in-set to its out-set and Forward returns the
// in-sets. Transfer must be monotone.
type Problem struct {
	N     int // number of nodes
	Bits  int // lattice width in bits
	Entry int // entry node
	// Succs returns the successor node indices of node i.
	Succs func(i int) []int
	// Transfer applies node i's effect: out = f_i(in). The slices are
	// distinct and pre-sized to Bits.
	Transfer func(i int, in, out BitSet)
	// Must selects the meet: true for intersection (top-initialised),
	// false for union (bottom-initialised).
	Must bool
}

// Forward solves the problem in the direction of control flow and returns
// the in-set of every node: the meet over predecessors of their out-sets.
// The entry's in-set is bottom (nothing established before entry). For a
// must problem, nodes unreachable from Entry keep top.
func (p *Problem) Forward() []BitSet {
	in := make([]BitSet, p.N)
	for i := range in {
		in[i] = NewBitSet(p.Bits)
		if p.Must && i != p.Entry {
			in[i].Fill()
		}
	}
	if p.N == 0 {
		return in
	}
	out := NewBitSet(p.Bits)
	work := make([]int, 0, p.N)
	inWork := make([]bool, p.N)
	// Seed with every node so each transfer runs at least once (facts a
	// node generates locally must propagate even when its in-set never
	// changes). In a must problem the extra visits are no-ops: non-entry
	// nodes start at top, and meeting top into a successor changes
	// nothing. Entry is pushed last so it pops first.
	for i := p.N - 1; i >= 0; i-- {
		if i == p.Entry {
			continue
		}
		work = append(work, i)
		inWork[i] = true
	}
	work = append(work, p.Entry)
	inWork[p.Entry] = true
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[i] = false
		p.Transfer(i, in[i], out)
		for _, s := range p.Succs(i) {
			var changed bool
			if p.Must {
				changed = in[s].IntersectWith(out)
			} else {
				changed = in[s].UnionWith(out)
			}
			if changed && !inWork[s] {
				work = append(work, s)
				inWork[s] = true
			}
		}
	}
	return in
}

// Dominators computes the dominator sets of a graph as a must-forward
// problem: dom(b) = {b} ∪ ⋂_{p ∈ preds(b)} dom(p). Node i dominates node j
// iff result[j].Get(i). Nodes unreachable from entry report all-ones
// (dominated by everything, vacuously). The entry dominates itself.
func Dominators(n, entry int, succs func(i int) []int) []BitSet {
	p := &Problem{
		N:     n,
		Bits:  n,
		Entry: entry,
		Succs: succs,
		Must:  true,
		Transfer: func(i int, in, out BitSet) {
			out.CopyFrom(in)
			out.Set(i)
		},
	}
	dom := p.Forward()
	// Forward returns in-sets (meet over preds of dom(p)); the dominator
	// set of a node includes the node itself.
	for i := range dom {
		dom[i].Set(i)
	}
	return dom
}
