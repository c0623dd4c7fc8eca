package repair

// The placement oracles over the Table-1 programs live in the external
// test package, because internal/bench, which holds those programs,
// imports this one. These aliases give them the kernel and the helpers.
var (
	SolveDense           = solveDense
	CheckContraction     = checkContraction
	EachPlacementProblem = eachPlacementProblem
)
