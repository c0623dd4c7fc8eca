// Package homework reproduces the paper's student-homework study (§7.4):
// 59 submissions of a manually synchronized parallel quicksort are graded
// against the repair tool's own output. The paper reports 5 submissions
// with remaining data races, 29 over-synchronized ones, and 25 that match
// the tool.
//
// The original submissions are not available, so a deterministic
// generator produces 59 submissions drawn from a catalogue of realistic
// placement strategies with the same class sizes; the grader — race
// detection plus critical-path comparison against the tool's repair — is
// the genuine analysis.
package homework

import (
	"fmt"

	"finishrepair/internal/cpl"
	"finishrepair/internal/lang/parser"
	"finishrepair/internal/lang/printer"
	"finishrepair/internal/lang/sem"
	"finishrepair/internal/race"
	"finishrepair/internal/repair"
)

// InputSize is the quicksort input used for grading.
const InputSize = 300

// quicksortTemplate renders the assignment program. Placeholders:
//
//	%[1]s  before the first recursive async   (inside quicksort)
//	%[2]s  between the two asyncs
//	%[3]s  after the second async
//	%[4]s  before the top-level call in main
//	%[5]s  after the top-level call
//	%[6]s  before the verification loop
//	%[7]s  after the verification loop
//
// Strategies fill the slots with "finish {" / "}" pairs.
const quicksortTemplate = `
func partition(a []int, lo int, hi int, out []int) {
    var p = a[(lo + hi) / 2];
    var i = lo;
    var j = hi;
    while (i <= j) {
        while (a[i] < p) { i = i + 1; }
        while (a[j] > p) { j = j - 1; }
        if (i <= j) {
            var t = a[i];
            a[i] = a[j];
            a[j] = t;
            i = i + 1;
            j = j - 1;
        }
    }
    out[0] = i;
    out[1] = j;
}

func quicksort(a []int, m int, n int) {
    if (m < n) {
        var ij = make([]int, 2);
        partition(a, m, n, ij);
        %[1]s
        async quicksort(a, m, ij[1]);
        %[2]s
        async quicksort(a, ij[0], n);
        %[3]s
    }
}

func main() {
    var size = %[8]d;
    var a = make([]int, size);
    var st = make([]int, 1);
    st[0] = 2024;
    for (var i = 0; i < size; i = i + 1) {
        st[0] = (st[0] * 1103515245 + 12345) %% 2147483648;
        a[i] = st[0] %% 100000;
    }
    %[4]s
    quicksort(a, 0, size - 1);
    %[5]s
    var ok = 1;
    var sum = 0;
    %[6]s
    for (var i = 0; i < size; i = i + 1) {
        if (i > 0 && a[i - 1] > a[i]) { ok = 0; }
        sum = (sum + a[i]) %% 1000000007;
    }
    %[7]s
    println(ok, sum);
}
`

// Strategy is one way students placed finishes.
type Strategy struct {
	Name  string
	Desc  string
	slots [7]string
}

// Render produces the submission source at the given input size.
func (s *Strategy) Render(size int) string {
	return fmt.Sprintf(quicksortTemplate,
		s.slots[0], s.slots[1], s.slots[2], s.slots[3], s.slots[4], s.slots[5], s.slots[6], size)
}

var (
	fin = "finish {"
	end = "}"
)

// Strategies is the catalogue of submission shapes.
var Strategies = []Strategy{
	// Still-racy shapes.
	{Name: "none", Desc: "no finish at all"},
	{Name: "first-async-only", Desc: "finish around only the first recursive async",
		slots: [7]string{fin, end, "", "", "", "", ""}},
	{Name: "second-async-only", Desc: "finish around only the second recursive async",
		slots: [7]string{"", fin, end, "", "", "", ""}},
	{Name: "whole-main", Desc: "finish around call AND verification together (does not join before the reads)",
		slots: [7]string{"", "", "", fin, "", "", end}},
	{Name: "verify-only", Desc: "finish around the verification loop only",
		slots: [7]string{"", "", "", "", "", fin, end}},

	// Over-synchronized shapes.
	{Name: "asyncs-inside", Desc: "finish around the two recursive asyncs inside quicksort (paper Fig. 2: correct but less parallel)",
		slots: [7]string{fin, "", end, "", "", "", ""}},
	{Name: "each-async", Desc: "finish around each recursive async separately (serializes)",
		slots: [7]string{fin, end + "\n        " + fin, end, "", "", "", ""}},
	{Name: "call-and-asyncs", Desc: "finish at the call site plus finish around the recursive asyncs",
		slots: [7]string{fin, "", end, fin, end, "", ""}},

	// Matching the tool.
	{Name: "call-site", Desc: "finish around the top-level quicksort call (the tool's repair)",
		slots: [7]string{"", "", "", fin, end, "", ""}},
}

// Submission is one generated homework submission.
type Submission struct {
	ID       int
	Strategy *Strategy
	Source   string
}

// classPlan assigns 59 submissions to strategies: 5 racy, 29
// over-synchronized, 25 matching (paper §7.4 class sizes).
var classPlan = []struct {
	strategy string
	count    int
}{
	{"none", 1},
	{"first-async-only", 1},
	{"second-async-only", 1},
	{"whole-main", 1},
	{"verify-only", 1},
	{"asyncs-inside", 13},
	{"each-async", 8},
	{"call-and-asyncs", 8},
	{"call-site", 25},
}

// Submissions generates the 59 deterministic submissions.
func Submissions() []Submission {
	var out []Submission
	id := 1
	for _, cp := range classPlan {
		var st *Strategy
		for i := range Strategies {
			if Strategies[i].Name == cp.strategy {
				st = &Strategies[i]
				break
			}
		}
		for i := 0; i < cp.count; i++ {
			out = append(out, Submission{ID: id, Strategy: st, Source: st.Render(InputSize)})
			id++
		}
	}
	return out
}

// Verdict classifies a submission.
type Verdict int

// Verdicts.
const (
	Racy Verdict = iota
	OverSynchronized
	Matches
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Racy:
		return "racy"
	case OverSynchronized:
		return "over-synchronized"
	default:
		return "matches tool"
	}
}

// GradeResult is the grader's output for one submission.
type GradeResult struct {
	Submission Submission
	Verdict    Verdict
	Races      int
	Span       int64 // critical path length of the submission (0 if racy)
	ToolSpan   int64 // critical path length of the tool's repair
}

// ToolRepair repairs the bare (finish-free) assignment with the tool and
// returns the repaired program's critical path length and its normalized
// source (the grading reference, as in the paper: "we evaluated the
// student submissions against the finish statements automatically
// generated by the tool").
func ToolRepair() (span int64, normalizedSrc string, err error) {
	bare := Strategies[0].Render(InputSize)
	prog, err := parser.Parse(bare)
	if err != nil {
		return 0, "", err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return 0, "", err
	}
	if _, err := repair.RepairChecked(info, repair.Options{}); err != nil {
		return 0, "", err
	}
	tree, err := race.Tree(info)
	if err != nil {
		return 0, "", err
	}
	m := cpl.Analyze(tree)
	return m.Span, normalize(printer.Print(prog)), nil
}

// normalize reprints a program so that only its structure matters
// (comments, synthesized-finish markers, formatting, and inferred type
// annotations wash out).
func normalize(src string) string {
	prog := parser.MustParse(src)
	sem.MustCheck(prog) // fills in inferred var types
	return printer.Print(prog)
}

// Grade classifies one submission against the tool's repair: submissions
// with remaining races are racy; race-free submissions whose finish
// placements equal the tool's match; any other race-free placement is
// over-synchronized (the tool's placement is optimal, so extra or
// different finishes can only add synchronization).
func Grade(sub Submission, toolSpan int64, toolSrc string) (*GradeResult, error) {
	prog, err := parser.Parse(sub.Source)
	if err != nil {
		return nil, fmt.Errorf("submission %d: %w", sub.ID, err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("submission %d: %w", sub.ID, err)
	}
	_, tree, det, err := race.Detect(info, race.VariantMRW, race.NewBagsOracle())
	if err != nil {
		return nil, fmt.Errorf("submission %d: %w", sub.ID, err)
	}
	gr := &GradeResult{Submission: sub, ToolSpan: toolSpan, Races: len(det.Races())}
	det.Release()
	if gr.Races > 0 {
		gr.Verdict = Racy
		return gr, nil
	}
	gr.Span = cpl.Analyze(tree).Span
	if normalize(sub.Source) == toolSrc {
		gr.Verdict = Matches
	} else {
		gr.Verdict = OverSynchronized
	}
	return gr, nil
}

// StudyResult tallies the full study.
type StudyResult struct {
	Results  []*GradeResult
	Racy     int
	OverSync int
	Matching int
	ToolSpan int64
}

// RunStudy grades all 59 submissions.
func RunStudy() (*StudyResult, error) {
	toolSpan, toolSrc, err := ToolRepair()
	if err != nil {
		return nil, err
	}
	sr := &StudyResult{ToolSpan: toolSpan}
	for _, sub := range Submissions() {
		gr, err := Grade(sub, toolSpan, toolSrc)
		if err != nil {
			return nil, err
		}
		sr.Results = append(sr.Results, gr)
		switch gr.Verdict {
		case Racy:
			sr.Racy++
		case OverSynchronized:
			sr.OverSync++
		default:
			sr.Matching++
		}
	}
	return sr, nil
}
