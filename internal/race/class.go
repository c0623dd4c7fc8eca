package race

import (
	"fmt"
	"slices"

	"finishrepair/internal/lang/ast"
)

// ClassLocs is how many distinct locations a Class keeps: enough to show
// a reviewer which memory the static race touches and to give the
// witness search several locations to aim at, bounded however many
// cells the class races on.
const ClassLocs = 8

// Class is one static race: the races of one kind between the same
// source statement and the same sink statement, the statements
// dpst.Node.Stmt names for a race's two steps. A program has few of
// them however many memory cells race (finish-stripped SOR: 20,580
// races, 3 classes).
type Class struct {
	// Src and Dst are the source and sink statements, nil for a step
	// that names none. Unlike the steps' statement indices they stay
	// valid once the repair rewrites the program.
	Src, Dst ast.Stmt
	// First is the class's first race in report order; its steps link
	// the class to the S-DPST.
	First *Race
	// Races counts the class's dynamic races.
	Races int
	// Locs lists the class's first ClassLocs distinct locations, in
	// report order.
	Locs []uint64
}

// String renders the class as "W->W 3:9 vs 4:9", with "?" for a step
// that names no statement.
func (c *Class) String() string {
	return fmt.Sprintf("%s %s vs %s", c.First.Kind, stmtPos(c.Src), stmtPos(c.Dst))
}

func stmtPos(s ast.Stmt) string {
	if s == nil {
		return "?"
	}
	return s.Pos().String()
}

type classKey struct {
	kind     Kind
	src, dst ast.Stmt
}

// ClassSet folds races into their static classes, kept in first-seen
// order. The zero value is an empty set.
type ClassSet struct {
	index   map[classKey]int
	classes []Class
}

// Add folds races, in report order, into the set.
func (s *ClassSet) Add(races []*Race) {
	if s.index == nil {
		s.index = make(map[classKey]int)
	}
	for _, r := range races {
		k := classKey{r.Kind, r.Src.Stmt(), r.Dst.Stmt()}
		i, ok := s.index[k]
		if !ok {
			i = len(s.classes)
			s.index[k] = i
			s.classes = append(s.classes, Class{Src: k.src, Dst: k.dst, First: r})
		}
		c := &s.classes[i]
		c.Races++
		if len(c.Locs) < ClassLocs && !slices.Contains(c.Locs, r.Loc) {
			c.Locs = append(c.Locs, r.Loc)
		}
	}
}

// Classes returns the classes in the order their first races were
// added. The slice is the set's own: a later Add updates it.
func (s *ClassSet) Classes() []Class { return s.classes }
