package tree

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
)

// sameVerdict reports whether the verdict recorded at construction agrees
// with a from-scratch Validate.
func sameVerdict(t *testing.T, name string, tr *Tree) {
	t.Helper()
	got, want := tr.Err(), tr.Validate()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Errorf("%s: recorded verdict %v, Validate says %v", name, got, want)
	}
}

func TestConstructorsRecordValidateVerdict(t *testing.T) {
	pp := PostalParams{Lambda: 900, Gap: 100}
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
		// Non-contiguous IDs, listed out of order, root in the middle.
		members := make([]fabric.NodeID, n)
		for i := range members {
			members[i] = fabric.NodeID((n - i) * 3)
		}
		root := members[n/2]
		builds := map[string]*Tree{
			"Binomial":    Binomial(root, members),
			"Chain":       Chain(root, members),
			"Flat":        Flat(root, members),
			"KAry2":       KAry(root, members, 2),
			"KAry5":       KAry(root, members, 5),
			"Optimal":     Optimal(root, members, pp),
			"Incremental": Incremental(Binomial(root, members), members[0], members, 3),
		}
		for name, tr := range builds {
			name = fmt.Sprintf("%s/%d", name, n)
			sameVerdict(t, name, tr)
			if tr.Err() != nil {
				t.Errorf("%s: constructor built an invalid tree: %v", name, tr.Err())
			}
			back := FromParents(tr.Root, tr.Parents())
			sameVerdict(t, name+"/FromParents", back)
		}
	}
}

func TestFromParentsRecordsInvalidRelations(t *testing.T) {
	for name, rel := range map[string]map[fabric.NodeID]fabric.NodeID{
		"foreign parent": {5: 0, 7: 5, 9: 99},
		"cycle off root": {1: 0, 2: 3, 3: 2},
		"ID inversion":   {2: 0, 1: 2},
	} {
		tr := FromParents(0, rel)
		if tr.Err() == nil {
			t.Errorf("%s: recorded as valid", name)
		}
		sameVerdict(t, name, tr)
	}
}
