package sql

import (
	"fmt"
	"strconv"
	"strings"

	"xomatiq/internal/value"
)

// Parse parses one SQL statement (an optional trailing ';' is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token when it matches kind and text.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expect(kind tokenKind, text string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("sql: expected %q, got %s", text, p.peek())
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error { return p.expect(tokKeyword, kw) }

// ident consumes an identifier (or an unreserved keyword used as a name).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	return "", fmt.Errorf("sql: expected identifier, got %s", t)
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("sql: expected statement, got %s", t)
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	default:
		return nil, fmt.Errorf("sql: unsupported statement %s", t)
	}
}

func (p *parser) createStmt() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		st := &CreateTable{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			kind, err := p.columnType()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, ColumnDef{Name: col, Type: kind})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return st, nil
	case p.acceptKeyword("INDEX"):
		st := &CreateIndex{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("NOT"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfNotExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		st.Table, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE, got %s", p.peek())
}

func (p *parser) columnType() (value.Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, fmt.Errorf("sql: expected column type, got %s", t)
	}
	var k value.Kind
	switch t.text {
	case "INT":
		k = value.KindInt
	case "FLOAT":
		k = value.KindFloat
	case "TEXT":
		k = value.KindText
	case "BOOL":
		k = value.KindBool
	case "BYTES":
		k = value.KindBytes
	default:
		return 0, fmt.Errorf("sql: unknown column type %s", t)
	}
	p.advance()
	return k, nil
}

func (p *parser) dropStmt() (Statement, error) {
	p.advance() // DROP
	isTable := p.acceptKeyword("TABLE")
	if !isTable {
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if isTable {
		return &DropTable{Name: name, IfExists: ifExists}, nil
	}
	return &DropIndex{Name: name, IfExists: ifExists}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	st := &Insert{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st := &Delete{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.advance() // SELECT
	st := &Select{Limit: -1}
	st.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	first, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = append(st.From, first)
	for p.accept(tokSymbol, ",") {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, ref)
	}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) intLiteral() (int, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, fmt.Errorf("sql: expected integer, got %s", t)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sql: bad integer %q: %w", t.text, err)
	}
	return n, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.expression()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		item.Alias, err = p.ident()
		if err != nil {
			return SelectItem{}, err
		}
	} else if p.peek().kind == tokIdent {
		item.Alias = p.advance().text
	}
	return item, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		ref.Alias, err = p.ident()
		if err != nil {
			return TableRef{}, err
		}
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//
//	expression  = orExpr
//	orExpr      = andExpr { OR andExpr }
//	andExpr     = notExpr { AND notExpr }
//	notExpr     = NOT notExpr | predicate
//	predicate   = catExpr [compOp catExpr | [NOT] LIKE catExpr | [NOT] IN ( expression {, expression} )]
//	catExpr     = primary { '||' primary }
//	primary     = ['-'] number | string | NULL | TRUE | FALSE
//	            | funcCall | columnRef | ( expression )
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Expr: e}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (Expr, error) {
	left, err := p.catExpr()
	if err != nil {
		return nil, err
	}
	// Optional NOT before LIKE/IN.
	not := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" {
		nt := p.toks[p.pos+1]
		if nt.kind == tokKeyword && (nt.text == "LIKE" || nt.text == "IN") {
			p.advance()
			not = true
		}
	}
	t := p.peek()
	switch {
	case t.kind == tokSymbol && isCompOp(t.text):
		p.advance()
		right, err := p.catExpr()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "<>" {
			op = OpNe
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	case t.kind == tokKeyword && t.text == "LIKE":
		p.advance()
		pat, err := p.catExpr()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Expr: left, Pattern: pat, Not: not}, nil
	case t.kind == tokKeyword && t.text == "IN":
		p.advance()
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, List: list, Not: not}, nil
	}
	if not {
		return nil, fmt.Errorf("sql: dangling NOT at %s", t)
	}
	return left, nil
}

func isCompOp(s string) bool {
	switch s {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) catExpr() (Expr, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "||") {
		right, err := p.primary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpCat, Left: left, Right: right}
	}
	return left, nil
}

// funcArgs are the functions the dialect has, with their argument
// counts. COUNT also takes *.
var funcArgs = map[string]int{
	"COUNT": 1, "SUM": 1, "MIN": 1, "MAX": 1,
	"CONTAINS": 2, "KWCONTAINS": 2,
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat:
		return p.number("")
	case tokString:
		p.advance()
		return &Literal{Val: value.NewText(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: value.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: value.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: value.NewBool(false)}, nil
		case "COUNT", "SUM", "MIN", "MAX":
			return p.funcCall()
		}
		return nil, fmt.Errorf("sql: unexpected %s in expression", t)
	case tokSymbol:
		if t.text == "-" {
			p.advance()
			if k := p.peek().kind; k != tokInt && k != tokFloat {
				return nil, fmt.Errorf(`sql: "-" must precede a number, got %s`, p.peek())
			}
			return p.number("-")
		}
		if t.text == "(" {
			p.advance()
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected %s in expression", t)
	case tokIdent:
		// Function call or column reference.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			if _, ok := funcArgs[strings.ToUpper(t.text)]; ok {
				return p.funcCall()
			}
			return nil, fmt.Errorf("sql: unknown function %q", t.text)
		}
		p.advance()
		if p.accept(tokSymbol, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression", t)
}

// number consumes a numeric literal token, sign prefixed.
func (p *parser) number(sign string) (Expr, error) {
	t := p.advance()
	if t.kind == tokInt {
		n, err := strconv.ParseInt(sign+t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer %q", sign+t.text)
		}
		return &Literal{Val: value.NewInt(n)}, nil
	}
	f, err := strconv.ParseFloat(sign+t.text, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad float %q", sign+t.text)
	}
	return &Literal{Val: value.NewFloat(f)}, nil
}

func (p *parser) funcCall() (Expr, error) {
	name := strings.ToUpper(p.advance().text)
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	if p.accept(tokSymbol, "*") {
		call.Star = true
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		if name != "COUNT" {
			return nil, fmt.Errorf("sql: %s(*) is not valid", name)
		}
		return call, nil
	}
	if !p.accept(tokSymbol, ")") {
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if want := funcArgs[name]; len(call.Args) != want {
		return nil, fmt.Errorf("sql: %s takes %d argument(s), got %d", name, want, len(call.Args))
	}
	return call, nil
}
