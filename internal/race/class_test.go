package race_test

import (
	"slices"
	"testing"

	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
)

// cellsSrc races on twelve array cells and one counter: each async writes
// its own cell, which main reads after the loop with no finish between,
// and each async also bumps the shared counter.
const cellsSrc = `
var hits = 0;
func main() {
    var a = make([]int, 12);
    for (var i = 0; i < 12; i = i + 1) {
        async {
            a[i] = i;
            hits = hits + 1;
        }
    }
    var sum = 0;
    for (var j = 0; j < 12; j = j + 1) {
        sum = sum + a[j];
    }
    println(sum + hits);
}
`

// TestClassSetFold folds the races of cellsSrc into static classes: in
// first-seen order, each race counted in exactly one class, each class
// keyed on its kind and two statements and keeping at most ClassLocs of
// its locations.
func TestClassSetFold(t *testing.T) {
	info, err := sem.Check(parser.MustParse(cellsSrc))
	if err != nil {
		t.Fatal(err)
	}
	_, _, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		t.Fatal(err)
	}
	races := det.Races()
	var set race.ClassSet
	set.Add(races)
	classes := set.Classes()

	total, next := 0, 0
	for i, c := range classes {
		total += c.Races
		if c.Src != c.First.Src.Stmt() || c.Dst != c.First.Dst.Stmt() {
			t.Errorf("class %d (%s): statements differ from its first race's", i, c.String())
		}
		first := slices.Index(races, c.First)
		if first < next {
			t.Errorf("class %d (%s) first seen at race %d, before class %d's", i, c.String(), first, i-1)
		}
		next = first
		var locs []uint64
		n := 0
		for _, r := range races {
			if r.Kind == c.First.Kind && r.Src.Stmt() == c.Src && r.Dst.Stmt() == c.Dst {
				n++
				if !slices.Contains(locs, r.Loc) {
					locs = append(locs, r.Loc)
				}
			}
		}
		if n != c.Races {
			t.Errorf("class %s counts %d races, want %d", c.String(), c.Races, n)
		}
		if want := locs[:min(len(locs), race.ClassLocs)]; !slices.Equal(c.Locs, want) {
			t.Errorf("class %s keeps locations %v, want the first %d distinct: %v", c.String(), c.Locs, race.ClassLocs, want)
		}
	}
	if total != len(races) {
		t.Errorf("classes hold %d races, want all %d", total, len(races))
	}
	// Twelve cells race from one write/read statement pair: one class
	// holds them all and keeps the first ClassLocs cells.
	capped := 0
	for _, c := range classes {
		if len(c.Locs) == race.ClassLocs {
			capped++
		}
	}
	if len(classes) > 6 || capped == 0 {
		t.Errorf("%d races fold into %d classes, %d at the location cap; want a few classes, one capped", len(races), len(classes), capped)
	}

	// Folding the same races again counts them again and adds no class.
	n, first := len(classes), classes[0].Races
	set.Add(races)
	if got := set.Classes(); len(got) != n || got[0].Races != 2*first {
		t.Errorf("refold: %d classes, first counts %d; want %d classes and %d", len(got), got[0].Races, n, 2*first)
	}
}
