package dataflow

import "testing"

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if len(b) != 3 {
		t.Fatalf("want 3 words for 130 bits, got %d", len(b))
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unexpected bits set")
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("bit 64 still set after Clear")
	}

	c := NewBitSet(130)
	c.Set(0)
	c.Set(5)
	if changed := b.IntersectWith(c); !changed {
		t.Error("intersect should have changed b (dropped 129)")
	}
	if !b.Get(0) || b.Get(129) || b.Get(5) {
		t.Error("intersection wrong")
	}
	if changed := b.UnionWith(c); !changed {
		t.Error("union should have added bit 5")
	}
	if !b.Get(5) {
		t.Error("union missed bit 5")
	}
	if NewBitSet(0) == nil {
		t.Error("zero-width set must still allocate")
	}
}

// Diamond CFG: 0 -> {1, 2} -> 3. Node 1 establishes fact A, node 2
// establishes facts A and B. At the join only A must hold; either may hold.
func diamondSuccs(i int) []int {
	switch i {
	case 0:
		return []int{1, 2}
	case 1, 2:
		return []int{3}
	}
	return nil
}

func TestForwardMustMeetsAtJoin(t *testing.T) {
	const bitA, bitB = 0, 1
	p := &Problem{
		N: 4, Bits: 2, Entry: 0, Succs: diamondSuccs, Must: true,
		Transfer: func(i int, in, out BitSet) {
			out.CopyFrom(in)
			switch i {
			case 1:
				out.Set(bitA)
			case 2:
				out.Set(bitA)
				out.Set(bitB)
			}
		},
	}
	in := p.Forward()
	if !in[3].Get(bitA) {
		t.Error("A holds on both paths; must-meet dropped it")
	}
	if in[3].Get(bitB) {
		t.Error("B holds on one path only; must-meet kept it")
	}
	if in[0].Get(bitA) || in[0].Get(bitB) {
		t.Error("entry in-set must be bottom")
	}
}

func TestForwardMayUnionsAtJoin(t *testing.T) {
	const bitA, bitB = 0, 1
	p := &Problem{
		N: 4, Bits: 2, Entry: 0, Succs: diamondSuccs, Must: false,
		Transfer: func(i int, in, out BitSet) {
			out.CopyFrom(in)
			if i == 1 {
				out.Set(bitA)
			}
			if i == 2 {
				out.Set(bitB)
			}
		},
	}
	in := p.Forward()
	if !in[3].Get(bitA) || !in[3].Get(bitB) {
		t.Error("may-meet must union both paths' facts")
	}
}

func TestForwardUnreachableStaysTop(t *testing.T) {
	// Node 2 unreachable: 0 -> 1, 2 -> 1.
	p := &Problem{
		N: 3, Bits: 1, Entry: 0, Must: true,
		Succs: func(i int) []int {
			if i == 0 || i == 2 {
				return []int{1}
			}
			return nil
		},
		Transfer: func(i int, in, out BitSet) { out.CopyFrom(in) },
	}
	in := p.Forward()
	if !in[2].Get(0) {
		t.Error("unreachable node must keep top in a must problem")
	}
	// The unreachable node's top out-set must not weaken node 1's meet —
	// but with meet-over-incoming-edges it does intersect; top is the
	// identity of intersection, so node 1 still sees entry's facts only.
	if in[1].Get(0) {
		t.Error("node 1 should have bottom (entry established nothing)")
	}
}

func TestDominators(t *testing.T) {
	// 0 -> 1 -> {2, 3}; 2 -> 4; 3 -> 4.
	succs := func(i int) []int {
		switch i {
		case 0:
			return []int{1}
		case 1:
			return []int{2, 3}
		case 2, 3:
			return []int{4}
		}
		return nil
	}
	dom := Dominators(5, 0, succs)
	mustDom := func(a, b int, want bool) {
		t.Helper()
		if dom[b].Get(a) != want {
			t.Errorf("dom(%d, %d) = %v, want %v", a, b, !want, want)
		}
	}
	mustDom(0, 4, true)  // entry dominates all
	mustDom(1, 4, true)  // single path through 1
	mustDom(2, 4, false) // join: neither branch dominates
	mustDom(3, 4, false)
	mustDom(4, 4, true) // self-domination
	mustDom(4, 2, false)
}
