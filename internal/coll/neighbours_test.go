package coll

import (
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/tree"
)

// The tree barrier's arithmetic neighbourhood must match the tree
// tree.Binomial builds over the same sorted members, rooted at the lowest.
func TestBinomialNeighboursMatchTree(t *testing.T) {
	for n := 1; n <= 70; n++ {
		for _, stride := range []int{1, 3} {
			ms := make([]fabric.NodeID, n)
			for i := range ms {
				ms[i] = fabric.NodeID(5 + 2*i*stride + i%2) // strictly increasing, with gaps
			}
			tr := tree.Binomial(ms[0], ms)
			for i, self := range ms {
				parent, children := binomialNeighbours(ms, i)
				want, ok := tr.Parent(self)
				if !ok {
					want = self
				}
				if parent != want {
					t.Fatalf("n=%d stride=%d member %v: parent %v, want %v", n, stride, self, parent, want)
				}
				if !slices.Equal(children, tr.Children(self)) {
					t.Fatalf("n=%d stride=%d member %v: children %v, want %v",
						n, stride, self, children, tr.Children(self))
				}
			}
		}
	}
}
