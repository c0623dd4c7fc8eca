package adversary

import (
	"fmt"

	"finishrepair/internal/interp"
	"finishrepair/internal/lang/token"
)

// Policy names a scheduling discipline for one controlled run.
type Policy string

// Scheduling policies. Every policy is deterministic: given the same
// program, input, and Schedule, the controller makes the identical
// sequence of decisions (the run is fully serialized, so host
// parallelism cannot perturb it).
const (
	// DepthFirst always grants the newest ready task — the controlled
	// reproduction of the canonical sequential depth-first execution.
	DepthFirst Policy = "depth-first"
	// RandomPriority picks uniformly among the ready tasks at every
	// yield, driven by the schedule's seed.
	RandomPriority Policy = "random"
	// DeferWrite delays any task about to write Loc until no other task
	// can run — the race-directed schedule that interleaves a
	// conflicting access between a read-modify-write's read and write
	// (lost updates) or lets a reader run before a deferred writer.
	DeferWrite Policy = "defer-write"
	// DeferRead delays any task about to read Loc, driving writes ahead
	// of the reads the sequential order put first.
	DeferRead Policy = "defer-read"
	// DeferPos delays any task about to access shared memory at source
	// position Pos — the coverage-gap search's position-directed
	// schedule, used when only static candidate positions are known.
	DeferPos Policy = "defer-pos"
)

// Schedule encodes one controlled schedule: the policy plus its
// parameter (seed for RandomPriority, target location for
// DeferWrite/DeferRead, target position for DeferPos). A Schedule and a
// program determine an interleaving completely; witnesses record the
// Schedule so anyone can replay them.
type Schedule struct {
	Policy Policy
	// Seed drives RandomPriority (ignored by the directed policies).
	Seed int64
	// Loc is the shared-memory location DeferWrite/DeferRead target.
	Loc uint64
	// Pos is the source position DeferPos targets.
	Pos token.Pos
}

// String renders the schedule compactly ("defer-write@loc3",
// "random#7", "defer-pos@4:9").
func (s Schedule) String() string {
	switch s.Policy {
	case RandomPriority:
		return fmt.Sprintf("%s#%d", s.Policy, s.Seed)
	case DeferWrite, DeferRead:
		return fmt.Sprintf("%s@loc%d", s.Policy, s.Loc)
	case DeferPos:
		return fmt.Sprintf("%s@%s", s.Policy, s.Pos)
	default:
		return string(s.Policy)
	}
}

// defers reports whether the schedule delays a task whose next
// operation is p.
func (s Schedule) defers(p interp.Point) bool {
	switch s.Policy {
	case DeferWrite:
		return p.Op == interp.OpWrite && p.Loc == s.Loc
	case DeferRead:
		return p.Op == interp.OpRead && p.Loc == s.Loc
	case DeferPos:
		return (p.Op == interp.OpRead || p.Op == interp.OpWrite) && p.Pos == s.Pos
	}
	return false
}

// RaceDirected builds the two race-directed schedules for a shared
// location: defer its writers, defer its readers. Between them they
// reverse the sequential order of every conflicting pair on loc —
// writes jump over reads, reads jump over writes, and read-modify-write
// sequences are torn between their read and their write.
func RaceDirected(loc uint64) []Schedule {
	return []Schedule{
		{Policy: DeferWrite, Loc: loc},
		{Policy: DeferRead, Loc: loc},
	}
}
