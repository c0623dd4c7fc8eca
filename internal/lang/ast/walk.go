package ast

// Inspect traverses the statement tree rooted at the program's functions
// and global initializers, calling f for every statement. Traversal is
// pre-order. Expressions are not visited (statements are what the repair
// tool rewrites).
func Inspect(p *Program, f func(Stmt)) {
	for _, fn := range p.Funcs {
		inspectBlock(fn.Body, f)
	}
}

func inspectBlock(b *Block, f func(Stmt)) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		inspectStmt(s, f)
	}
}

func inspectStmt(s Stmt, f func(Stmt)) {
	f(s)
	if fs, ok := s.(*ForStmt); ok {
		if fs.Init != nil {
			inspectStmt(fs.Init, f)
		}
		if fs.Post != nil {
			inspectStmt(fs.Post, f)
		}
	}
	for _, b := range StmtBlocks(s) {
		inspectBlock(b, f)
	}
}

// Blocks returns every block in the program (function bodies and all
// nested blocks), in pre-order.
func Blocks(p *Program) []*Block {
	var out []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if b == nil {
			return
		}
		out = append(out, b)
		for _, s := range b.Stmts {
			for _, nb := range StmtBlocks(s) {
				visit(nb)
			}
		}
	}
	for _, fn := range p.Funcs {
		visit(fn.Body)
	}
	return out
}

// FindBlock returns the block with the given ID, or nil.
func FindBlock(p *Program, id int) *Block {
	for _, b := range Blocks(p) {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// StripFinishes removes every finish statement from the program, splicing
// each finish body in place of the statement. This is how the evaluation
// (paper §7.1) produces the "buggy" under-synchronized versions of the
// benchmarks. It returns the number of finishes removed.
func StripFinishes(p *Program) int {
	n := 0
	for _, fn := range p.Funcs {
		n += stripFinishesBlock(fn.Body)
	}
	return n
}

func stripFinishesBlock(b *Block) int {
	if b == nil {
		return 0
	}
	n := 0
	var out []Stmt
	for _, s := range b.Stmts {
		if fs, ok := s.(*FinishStmt); ok {
			n++
			n += stripFinishesBlock(fs.Body)
			out = append(out, fs.Body.Stmts...)
			continue
		}
		n += stripFinishesStmt(s)
		out = append(out, s)
	}
	b.Stmts = out
	return n
}

func stripFinishesStmt(s Stmt) int {
	switch st := s.(type) {
	case *IfStmt:
		return stripFinishesBlock(st.Then) + stripFinishesBlock(st.Else)
	case *WhileStmt:
		return stripFinishesBlock(st.Body)
	case *ForStmt:
		return stripFinishesBlock(st.Body)
	case *AsyncStmt:
		return stripFinishesBlock(st.Body)
	case *BlockStmt:
		return stripFinishesBlock(st.Body)
	}
	return 0
}

// CountStmts counts statements of the program, one per Stmt node.
func CountStmts(p *Program) int {
	n := 0
	Inspect(p, func(Stmt) { n++ })
	return n
}

// CountFinishes counts finish statements in the program.
func CountFinishes(p *Program) int {
	n := 0
	Inspect(p, func(s Stmt) {
		if _, ok := s.(*FinishStmt); ok {
			n++
		}
	})
	return n
}

// CountAsyncs counts async statements in the program.
func CountAsyncs(p *Program) int {
	n := 0
	Inspect(p, func(s Stmt) {
		if _, ok := s.(*AsyncStmt); ok {
			n++
		}
	})
	return n
}
