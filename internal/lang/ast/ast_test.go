package ast_test

import (
	"testing"

	"finishrepair/internal/lang/ast"
	"finishrepair/internal/lang/parser"
)

const src = `
var g = 1;
func f(x int) int {
    if (x > 0) { return x; } else { return -x; }
}
func main() {
    finish {
        async { g = f(2); }
        while (g > 3) { g = g - 1; }
    }
    for (var i = 0; i < 2; i = i + 1) { println(i); }
    { println(g); }
}
`

func TestInspectVisitsEveryStatementKind(t *testing.T) {
	prog := parser.MustParse(src)
	kinds := map[string]int{}
	ast.Inspect(prog, func(s ast.Stmt) {
		switch s.(type) {
		case *ast.VarDeclStmt:
			kinds["var"]++
		case *ast.AssignStmt:
			kinds["assign"]++
		case *ast.IfStmt:
			kinds["if"]++
		case *ast.WhileStmt:
			kinds["while"]++
		case *ast.ForStmt:
			kinds["for"]++
		case *ast.ReturnStmt:
			kinds["return"]++
		case *ast.ExprStmt:
			kinds["expr"]++
		case *ast.AsyncStmt:
			kinds["async"]++
		case *ast.FinishStmt:
			kinds["finish"]++
		case *ast.BlockStmt:
			kinds["block"]++
		}
	})
	for _, k := range []string{"var", "assign", "if", "while", "for", "return", "expr", "async", "finish", "block"} {
		if kinds[k] == 0 {
			t.Errorf("Inspect never saw a %s statement", k)
		}
	}
}

func TestBlocksAndFindBlock(t *testing.T) {
	prog := parser.MustParse(src)
	blocks := ast.Blocks(prog)
	if len(blocks) < 8 {
		t.Fatalf("only %d blocks found", len(blocks))
	}
	for _, b := range blocks {
		if got := ast.FindBlock(prog, b.ID); got != b {
			t.Fatalf("FindBlock(%d) returned wrong block", b.ID)
		}
	}
	if ast.FindBlock(prog, 1<<30) != nil {
		t.Error("FindBlock on unknown ID should be nil")
	}

	// Blocks descends into isolated bodies, nested ones included.
	iso := parser.MustParse(`
var x = 0;
func main() {
    async { isolated { x = x + 1; if (x > 0) { isolated { x = 2; } } } }
}`)
	var bodies []*ast.Block
	ast.Inspect(iso, func(s ast.Stmt) {
		if is, ok := s.(*ast.IsolatedStmt); ok {
			bodies = append(bodies, is.Body)
		}
	})
	if len(bodies) != 2 {
		t.Fatalf("found %d isolated statements, want 2", len(bodies))
	}
	if n := len(ast.Blocks(iso)); n != 5 {
		t.Errorf("Blocks found %d blocks, want 5 (main, async, isolated, if, nested isolated)", n)
	}
	for _, b := range bodies {
		if ast.FindBlock(iso, b.ID) != b {
			t.Errorf("FindBlock(%d) misses an isolated body", b.ID)
		}
	}
}

func TestCounts(t *testing.T) {
	prog := parser.MustParse(src)
	if ast.CountAsyncs(prog) != 1 || ast.CountFinishes(prog) != 1 {
		t.Errorf("counts: asyncs=%d finishes=%d", ast.CountAsyncs(prog), ast.CountFinishes(prog))
	}
	total := ast.CountStmts(prog)
	if total < 10 {
		t.Errorf("CountStmts = %d, suspiciously small", total)
	}
	removed := ast.StripFinishes(prog)
	if removed != 1 || ast.CountFinishes(prog) != 0 {
		t.Error("strip failed")
	}
	// Statement count shrinks by exactly the removed finish statements.
	if got := ast.CountStmts(prog); got != total-1 {
		t.Errorf("after strip CountStmts = %d, want %d", got, total-1)
	}
}

func TestNewBlockIDsMonotonic(t *testing.T) {
	prog := parser.MustParse(src)
	b1 := prog.NewBlock(prog.Funcs[0].Body.LbPos, nil)
	b2 := prog.NewBlock(prog.Funcs[0].Body.LbPos, nil)
	if b2.ID != b1.ID+1 {
		t.Errorf("NewBlock IDs %d, %d not consecutive", b1.ID, b2.ID)
	}
}

func TestFuncLookup(t *testing.T) {
	prog := parser.MustParse(src)
	if prog.Func("f") == nil || prog.Func("main") == nil || prog.Func("nope") != nil {
		t.Error("Func lookup wrong")
	}
}
