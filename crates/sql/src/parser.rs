//! Recursive-descent parser with precedence climbing for expressions.
//!
//! The grammar is the pragmatic subset described in the crate docs. Errors
//! carry the byte offset of the offending token, which the server surfaces
//! back to the client verbatim.

use std::fmt;

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Symbol, Token, TokenKind};

/// Parse error with source offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset of the offending token.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parse exactly one statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_statement()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a semicolon-separated batch of statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let mut p = Parser::new(sql)?;
    let mut stmts = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_eof() {
            break;
        }
        stmts.push(p.parse_statement()?);
        if !p.at_eof() && !p.check_symbol(Symbol::Semicolon) {
            return Err(p.unexpected("';' between statements"));
        }
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    // -- token helpers ------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError {
            message: format!("expected {wanted}, found {}", self.peek()),
            offset: self.offset(),
        }
    }

    /// Is the current token the given keyword?
    fn check_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Word { upper, .. } if upper == kw)
    }

    fn check_kw_at(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_at(n), TokenKind::Word { upper, .. } if upper == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{kw}'")))
        }
    }

    fn check_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), TokenKind::Symbol(x) if *x == s)
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.check_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<(), ParseError> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{s}'")))
        }
    }

    /// Parse a plain identifier (word or quoted), rejecting keywords is NOT
    /// attempted — SQL identifiers may shadow non-reserved words.
    fn parse_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Word { text, .. } => {
                self.advance();
                Ok(text)
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    /// Parse an object name: `ident`, `ns.ident`, or `#temp`.
    fn parse_object_name(&mut self) -> Result<ObjectName, ParseError> {
        if let TokenKind::SigilIdent(s) = self.peek().clone() {
            if s.starts_with('#') {
                self.advance();
                return Ok(ObjectName::bare(s));
            }
            return Err(self.unexpected("object name"));
        }
        let first = self.parse_ident()?;
        if self.eat_symbol(Symbol::Dot) {
            let second = self.parse_ident()?;
            Ok(ObjectName::qualified(first, second))
        } else {
            Ok(ObjectName::bare(first))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                let v = n.parse::<u64>().map_err(|_| ParseError {
                    message: format!("expected integer, found '{n}'"),
                    offset: self.offset(),
                })?;
                self.advance();
                Ok(v)
            }
            _ => Err(self.unexpected("integer")),
        }
    }

    // -- statements ---------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.check_kw("SELECT") {
            return Ok(Statement::Select(self.parse_select()?));
        }
        if self.check_kw("INSERT") {
            return self.parse_insert();
        }
        if self.check_kw("UPDATE") {
            return self.parse_update();
        }
        if self.check_kw("DELETE") {
            return self.parse_delete();
        }
        if self.check_kw("CREATE") {
            return self.parse_create();
        }
        if self.check_kw("DROP") {
            return self.parse_drop();
        }
        if self.check_kw("EXEC") || self.check_kw("EXECUTE") {
            return self.parse_exec();
        }
        if self.eat_kw("BEGIN") {
            // Top level: BEGIN [TRAN | TRANSACTION]
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("SET") {
            let name = self.parse_ident()?;
            let _ = self.eat_symbol(Symbol::Eq);
            let value = self.parse_expr()?;
            return Ok(Statement::Set { name, value });
        }
        if self.eat_kw("PRINT") {
            return Ok(Statement::Print(self.parse_expr()?));
        }
        if self.eat_kw("EXPLAIN") {
            return Ok(Statement::Explain(Box::new(self.parse_statement()?)));
        }
        Err(self.unexpected("statement"))
    }

    fn parse_select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("SELECT")?;

        let distinct = self.eat_kw("DISTINCT");
        let mut limit = None;
        if self.eat_kw("TOP") {
            limit = Some(self.parse_u64()?);
        }

        let mut projections = Vec::new();
        loop {
            projections.push(self.parse_select_item()?);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        let mut join_preds: Vec<Expr> = Vec::new();
        if self.eat_kw("FROM") {
            from.push(self.parse_from_item()?);
            loop {
                if self.eat_symbol(Symbol::Comma) {
                    from.push(self.parse_from_item()?);
                } else if self.check_kw("JOIN")
                    || (self.check_kw("INNER") && self.check_kw_at(1, "JOIN"))
                {
                    let _ = self.eat_kw("INNER");
                    self.expect_kw("JOIN")?;
                    from.push(self.parse_from_item()?);
                    self.expect_kw("ON")?;
                    join_preds.push(self.parse_expr()?);
                } else {
                    break;
                }
            }
        }

        let mut where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        // Fold JOIN ... ON predicates into the WHERE conjunction; the
        // engine's planner recovers the join structure from conjuncts.
        for pred in join_preds {
            where_clause = Some(match where_clause {
                Some(w) => Expr::and(w, pred),
                None => pred,
            });
        }

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        if self.eat_kw("LIMIT") {
            limit = Some(self.parse_u64()?);
        }
        let offset = if self.eat_kw("OFFSET") {
            Some(self.parse_u64()?)
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat_symbol(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Word { text, .. } = self.peek().clone() {
            if matches!(self.peek_at(1), TokenKind::Symbol(Symbol::Dot))
                && matches!(self.peek_at(2), TokenKind::Symbol(Symbol::Star))
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(text));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.parse_ident()?)
        } else {
            match self.peek().clone() {
                // Bare alias (`SELECT a b`): only accept a word that isn't a
                // clause keyword.
                TokenKind::Word { text, upper } if !is_clause_keyword(&upper) => {
                    self.advance();
                    Some(text)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem, ParseError> {
        let table = self.parse_object_name()?;
        let alias = if self.eat_kw("AS") {
            Some(self.parse_ident()?)
        } else {
            match self.peek().clone() {
                TokenKind::Word { text, upper }
                    if !is_clause_keyword(&upper)
                        && upper != "JOIN"
                        && upper != "INNER"
                        && upper != "ON" =>
                {
                    self.advance();
                    Some(text)
                }
                _ => None,
            }
        };
        Ok(FromItem { table, alias })
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("INSERT")?;
        let _ = self.eat_kw("INTO");
        let table = self.parse_object_name()?;

        // Optional column list: `(a, b, c)` — distinguished from a VALUES
        // tuple by the keyword that follows.
        let mut columns = None;
        if self.check_symbol(Symbol::LParen) {
            // Lookahead: `( ident , ... )` followed by VALUES or SELECT.
            let save = self.pos;
            self.advance();
            let mut cols = Vec::new();
            let ok = loop {
                match self.parse_ident() {
                    Ok(c) => cols.push(c),
                    Err(_) => break false,
                }
                if self.eat_symbol(Symbol::Comma) {
                    continue;
                }
                break self.eat_symbol(Symbol::RParen);
            };
            if ok && (self.check_kw("VALUES") || self.check_kw("SELECT")) {
                columns = Some(cols);
            } else {
                self.pos = save;
            }
        }

        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut row = Vec::new();
                if !self.check_symbol(Symbol::RParen) {
                    loop {
                        row.push(self.parse_expr()?);
                        if !self.eat_symbol(Symbol::Comma) {
                            break;
                        }
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                rows.push(row);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.check_kw("SELECT") {
            InsertSource::Select(Box::new(self.parse_select()?))
        } else {
            return Err(self.unexpected("VALUES or SELECT"));
        };

        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            source,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("UPDATE")?;
        let table = self.parse_object_name()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.parse_ident()?;
            self.expect_symbol(Symbol::Eq)?;
            let value = self.parse_expr()?;
            assignments.push((col, value));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStmt {
            table,
            assignments,
            where_clause,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("DELETE")?;
        let _ = self.eat_kw("FROM");
        let table = self.parse_object_name()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            return self.parse_create_table();
        }
        if self.eat_kw("PROCEDURE") || self.eat_kw("PROC") {
            return self.parse_create_proc();
        }
        if self.eat_kw("INDEX") {
            let name = self.parse_ident()?;
            self.expect_kw("ON")?;
            let table = self.parse_object_name()?;
            self.expect_symbol(Symbol::LParen)?;
            let column = self.parse_ident()?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
            });
        }
        Err(self.unexpected("TABLE, PROCEDURE or INDEX after CREATE"))
    }

    fn parse_create_table(&mut self) -> Result<Statement, ParseError> {
        let name = self.parse_object_name()?;
        if self.eat_kw("AS") {
            let query = Box::new(self.parse_select()?);
            return Ok(Statement::CreateTableAs { name, query });
        }
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.check_kw("PRIMARY") {
                self.advance();
                self.expect_kw("KEY")?;
                self.expect_symbol(Symbol::LParen)?;
                loop {
                    primary_key.push(self.parse_ident()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
            } else {
                let col_name = self.parse_ident()?;
                let type_name = self.parse_type_name()?;
                let mut not_null = false;
                loop {
                    if self.check_kw("NOT") && self.check_kw_at(1, "NULL") {
                        self.advance();
                        self.advance();
                        not_null = true;
                    } else if self.eat_kw("NULL") {
                        // explicit nullable — the default
                    } else if self.check_kw("PRIMARY") {
                        self.advance();
                        self.expect_kw("KEY")?;
                        primary_key.push(col_name.clone());
                        not_null = true;
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    type_name,
                    not_null,
                });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateTable(CreateTableStmt {
            name,
            columns,
            primary_key,
        }))
    }

    /// Parse a type name, swallowing an optional precision like
    /// `DECIMAL(12,2)` or `VARCHAR(25)` (precision is advisory).
    fn parse_type_name(&mut self) -> Result<String, ParseError> {
        let base = self.parse_ident()?;
        if self.eat_symbol(Symbol::LParen) {
            let _ = self.parse_u64()?;
            if self.eat_symbol(Symbol::Comma) {
                let _ = self.parse_u64()?;
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        Ok(base)
    }

    fn parse_create_proc(&mut self) -> Result<Statement, ParseError> {
        let name = self.parse_object_name()?;
        let mut params = Vec::new();
        // Parameters: parenthesized or bare T-SQL style list of `@p TYPE`.
        let parenthesized = self.eat_symbol(Symbol::LParen);
        if parenthesized || matches!(self.peek(), TokenKind::SigilIdent(s) if s.starts_with('@')) {
            loop {
                match self.peek().clone() {
                    TokenKind::SigilIdent(s) if s.starts_with('@') => {
                        self.advance();
                        let type_name = self.parse_type_name()?;
                        params.push(ProcParam {
                            name: s[1..].to_string(),
                            type_name,
                        });
                    }
                    _ => {
                        if parenthesized && self.check_symbol(Symbol::RParen) {
                            break;
                        }
                        return Err(self.unexpected("@parameter"));
                    }
                }
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            if parenthesized {
                self.expect_symbol(Symbol::RParen)?;
            }
        }
        self.expect_kw("AS")?;

        let mut body = Vec::new();
        // `AS BEGIN stmt; stmt; … END` — but `BEGIN TRAN…` is a transaction
        // statement inside a single-statement body.
        let block = self.check_kw("BEGIN")
            && !self.check_kw_at(1, "TRAN")
            && !self.check_kw_at(1, "TRANSACTION")
            && !matches!(
                self.peek_at(1),
                TokenKind::Symbol(Symbol::Semicolon) | TokenKind::Eof
            );
        if block {
            self.expect_kw("BEGIN")?;
            loop {
                while self.eat_symbol(Symbol::Semicolon) {}
                if self.eat_kw("END") {
                    break;
                }
                body.push(self.parse_statement()?);
            }
        } else {
            body.push(self.parse_statement()?);
        }
        Ok(Statement::CreateProc(CreateProcStmt { name, params, body }))
    }

    fn parse_drop(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw("DROP")?;
        if self.eat_kw("INDEX") {
            let if_exists = if self.check_kw("IF") && self.check_kw_at(1, "EXISTS") {
                self.advance();
                self.advance();
                true
            } else {
                false
            };
            let name = self.parse_ident()?;
            return Ok(Statement::DropIndex { name, if_exists });
        }
        let is_table = if self.eat_kw("TABLE") {
            true
        } else if self.eat_kw("PROCEDURE") || self.eat_kw("PROC") {
            false
        } else {
            return Err(self.unexpected("TABLE, PROCEDURE or INDEX after DROP"));
        };
        let if_exists = if self.check_kw("IF") && self.check_kw_at(1, "EXISTS") {
            self.advance();
            self.advance();
            true
        } else {
            false
        };
        let name = self.parse_object_name()?;
        Ok(if is_table {
            Statement::DropTable { name, if_exists }
        } else {
            Statement::DropProc { name, if_exists }
        })
    }

    fn parse_exec(&mut self) -> Result<Statement, ParseError> {
        let _ = self.eat_kw("EXEC") || self.eat_kw("EXECUTE");
        let name = self.parse_object_name()?;
        let mut args = Vec::new();
        if self.eat_symbol(Symbol::LParen) {
            if !self.check_symbol(Symbol::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
            }
            self.expect_symbol(Symbol::RParen)?;
        } else if !self.at_eof() && !self.check_symbol(Symbol::Semicolon) {
            // Bare T-SQL argument list: EXEC p 1, 'x'
            loop {
                args.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        Ok(Statement::Exec(ExecStmt { name, args }))
    }

    // -- expressions ---------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr, ParseError> {
        let expr = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(expr),
                negated,
            });
        }

        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.check_kw("NOT")
            && (self.check_kw_at(1, "BETWEEN")
                || self.check_kw_at(1, "IN")
                || self.check_kw_at(1, "LIKE"))
        {
            self.advance();
            true
        } else {
            false
        };

        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(expr),
                negated,
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if self.eat_kw("IN") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(expr),
                negated,
                list,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(expr),
                negated,
                pattern: Box::new(pattern),
            });
        }
        if negated {
            return Err(self.unexpected("BETWEEN, IN or LIKE after NOT"));
        }

        // Comparison
        let op = match self.peek() {
            TokenKind::Symbol(Symbol::Eq) => Some(BinaryOp::Eq),
            TokenKind::Symbol(Symbol::NotEq) => Some(BinaryOp::NotEq),
            TokenKind::Symbol(Symbol::Lt) => Some(BinaryOp::Lt),
            TokenKind::Symbol(Symbol::LtEq) => Some(BinaryOp::LtEq),
            TokenKind::Symbol(Symbol::Gt) => Some(BinaryOp::Gt),
            TokenKind::Symbol(Symbol::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(expr, op, right));
        }
        Ok(expr)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_term()?;
        loop {
            let op = if self.eat_symbol(Symbol::Plus) {
                BinaryOp::Add
            } else if self.eat_symbol(Symbol::Minus) {
                BinaryOp::Sub
            } else {
                break;
            };
            let right = self.parse_term()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_factor()?;
        loop {
            let op = if self.eat_symbol(Symbol::Star) {
                BinaryOp::Mul
            } else if self.eat_symbol(Symbol::Slash) {
                BinaryOp::Div
            } else if self.eat_symbol(Symbol::Percent) {
                BinaryOp::Mod
            } else {
                break;
            };
            let right = self.parse_factor()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat_symbol(Symbol::Minus) {
            // Fold `-<number>` into a negative literal (this is also the
            // only way to spell i64::MIN, whose magnitude overflows i64).
            if let TokenKind::Number(n) = self.peek().clone() {
                self.advance();
                let text = format!("-{n}");
                if !n.contains('.') && !n.contains('e') && !n.contains('E') {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Expr::Literal(Literal::Int(v)));
                    }
                }
                let v = text.parse::<f64>().map_err(|_| ParseError {
                    message: format!("bad number '{text}'"),
                    offset: self.offset(),
                })?;
                return Ok(Expr::Literal(Literal::Float(v)));
            }
            let inner = self.parse_factor()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.parse_factor();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    let v = n.parse::<f64>().map_err(|_| ParseError {
                        message: format!("bad number '{n}'"),
                        offset: self.offset(),
                    })?;
                    Ok(Expr::Literal(Literal::Float(v)))
                } else {
                    match n.parse::<i64>() {
                        Ok(v) => Ok(Expr::Literal(Literal::Int(v))),
                        Err(_) => {
                            let v = n.parse::<f64>().map_err(|_| ParseError {
                                message: format!("bad number '{n}'"),
                                offset: self.offset(),
                            })?;
                            Ok(Expr::Literal(Literal::Float(v)))
                        }
                    }
                }
            }
            TokenKind::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            TokenKind::SigilIdent(s) if s.starts_with("@@") => {
                self.advance();
                Ok(Expr::SysVar(s[2..].to_uppercase()))
            }
            TokenKind::SigilIdent(s) if s.starts_with('@') => {
                self.advance();
                Ok(Expr::Param(s[1..].to_string()))
            }
            // `#temp.col` — temp-table-qualified column reference.
            TokenKind::SigilIdent(s) if s.starts_with('#') => {
                self.advance();
                self.expect_symbol(Symbol::Dot)?;
                let name = self.parse_ident()?;
                Ok(Expr::Column {
                    table: Some(s),
                    name,
                })
            }
            TokenKind::Symbol(Symbol::LParen) => {
                self.advance();
                let inner = self.parse_expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(Expr::Nested(Box::new(inner)))
            }
            TokenKind::Word { text, upper } => {
                match upper.as_str() {
                    "NULL" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Null))
                    }
                    "TRUE" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Bool(true)))
                    }
                    "FALSE" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Bool(false)))
                    }
                    "DATE" if matches!(self.peek_at(1), TokenKind::StringLit(_)) => {
                        self.advance();
                        if let TokenKind::StringLit(s) = self.advance() {
                            Ok(Expr::Literal(Literal::Date(s)))
                        } else {
                            unreachable!("peeked string literal")
                        }
                    }
                    "CASE" => self.parse_case(),
                    _ if is_clause_keyword(&upper) || is_statement_keyword(&upper) => {
                        Err(self.unexpected("expression"))
                    }
                    _ => {
                        // Function call?
                        if matches!(self.peek_at(1), TokenKind::Symbol(Symbol::LParen)) {
                            self.advance(); // name
                            self.advance(); // (
                            let distinct = self.eat_kw("DISTINCT");
                            let mut args = Vec::new();
                            if !self.check_symbol(Symbol::RParen) {
                                loop {
                                    if self.eat_symbol(Symbol::Star) {
                                        args.push(Expr::Wildcard);
                                    } else {
                                        args.push(self.parse_expr()?);
                                    }
                                    if !self.eat_symbol(Symbol::Comma) {
                                        break;
                                    }
                                }
                            }
                            self.expect_symbol(Symbol::RParen)?;
                            return Ok(Expr::Function {
                                name: upper,
                                args,
                                distinct,
                            });
                        }
                        // Column reference, possibly qualified.
                        self.advance();
                        if self.check_symbol(Symbol::Dot)
                            && !matches!(self.peek_at(1), TokenKind::Symbol(Symbol::Star))
                        {
                            self.advance();
                            let name = self.parse_ident()?;
                            Ok(Expr::Column {
                                table: Some(text),
                                name,
                            })
                        } else {
                            Ok(Expr::Column {
                                table: None,
                                name: text,
                            })
                        }
                    }
                }
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                if self.eat_symbol(Symbol::Dot) {
                    let name = self.parse_ident()?;
                    Ok(Expr::Column {
                        table: Some(s),
                        name,
                    })
                } else {
                    Ok(Expr::Column {
                        table: None,
                        name: s,
                    })
                }
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw("CASE")?;
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let value = self.parse_expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }
}

/// Keywords that begin a statement and therefore can never be a bare column
/// reference in expression position.
fn is_statement_keyword(upper: &str) -> bool {
    matches!(
        upper,
        "SELECT"
            | "INSERT"
            | "UPDATE"
            | "DELETE"
            | "CREATE"
            | "DROP"
            | "EXEC"
            | "EXECUTE"
            | "BEGIN"
            | "COMMIT"
            | "ROLLBACK"
            | "PRINT"
            | "EXPLAIN"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "JOIN"
            | "INNER"
            | "TOP"
            | "PRIMARY"
    )
}

/// Keywords that terminate a projection/alias position.
fn is_clause_keyword(upper: &str) -> bool {
    matches!(
        upper,
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "UNION"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "ON"
            | "SET"
            | "VALUES"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "ASC"
            | "DESC"
            | "BETWEEN"
            | "IN"
            | "LIKE"
            | "IS"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = sel("SELECT 1");
        assert!(s.from.is_empty());
        assert_eq!(s.projections.len(), 1);
    }

    #[test]
    fn sysvar_parses_and_renders() {
        let stmt = parse_statement("INSERT INTO t VALUES ('a', @@rowcount, @@Messages)").unwrap();
        let rendered = crate::display::render_statement(&stmt);
        assert!(rendered.contains("@@ROWCOUNT"), "{rendered}");
        assert!(rendered.contains("@@MESSAGES"), "{rendered}");
        assert_eq!(parse_statement(&rendered).unwrap(), stmt);
        // A bare `@@` still fails to lex.
        assert!(parse_statement("SELECT @@").is_err());
    }

    #[test]
    fn select_star_from() {
        let s = sel("SELECT * FROM customer");
        assert_eq!(s.projections, vec![SelectItem::Wildcard]);
        assert_eq!(s.from[0].table, ObjectName::bare("customer"));
    }

    #[test]
    fn qualified_names_and_aliases() {
        let s = sel("SELECT c.name AS n, o.total FROM dbo.customer c, dbo.orders AS o WHERE c.id = o.cust_id");
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias.as_deref(), Some("c"));
        assert_eq!(s.from[1].alias.as_deref(), Some("o"));
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn explicit_join_folds_into_where() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 1");
        assert_eq!(s.from.len(), 2);
        // WHERE y>1 AND a.x=b.x
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn inner_join_keyword() {
        let s = sel("SELECT * FROM a INNER JOIN b ON a.x = b.x");
        assert_eq!(s.from.len(), 2);
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn group_by_having_order_limit_offset() {
        let s = sel("SELECT status, COUNT(*), SUM(total) FROM orders \
             GROUP BY status HAVING COUNT(*) > 5 ORDER BY status DESC LIMIT 10 OFFSET 20");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(20));
    }

    #[test]
    fn top_n() {
        let s = sel("SELECT TOP 5 * FROM t");
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn expressions_precedence() {
        let s = sel("SELECT 1 + 2 * 3");
        match &s.projections[0] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Binary {
                    op: BinaryOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(
                        **right,
                        Expr::Binary {
                            op: BinaryOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("bad tree {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicates() {
        sel("SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT IN (1,2,3) AND c LIKE 'Sm%' AND d IS NOT NULL");
        sel("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)");
    }

    #[test]
    fn count_star_and_distinct() {
        let s = sel("SELECT COUNT(*), COUNT(DISTINCT supplier) FROM partsupp");
        match &s.projections[0] {
            SelectItem::Expr {
                expr:
                    Expr::Function {
                        name,
                        args,
                        distinct,
                    },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert_eq!(args[0], Expr::Wildcard);
                assert!(!distinct);
            }
            other => panic!("{other:?}"),
        }
        match &s.projections[1] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(distinct),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_expression() {
        sel("SELECT CASE WHEN type LIKE 'PROMO%' THEN price ELSE 0 END FROM lineitem");
    }

    #[test]
    fn date_literal() {
        let s = sel("SELECT * FROM o WHERE odate >= DATE '1994-01-01'");
        let w = s.where_clause.unwrap();
        match w {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, Expr::Literal(Literal::Date("1994-01-01".into())));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_values() {
        let st = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match st {
            Statement::Insert(i) => {
                assert_eq!(
                    i.columns.as_deref(),
                    Some(&["a".to_string(), "b".to_string()][..])
                );
                match i.source {
                    InsertSource::Values(rows) => assert_eq!(rows.len(), 2),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_select() {
        let st =
            parse_statement("INSERT INTO phoenix.rs_1 SELECT * FROM customer WHERE name = 'Smith'")
                .unwrap();
        match st {
            Statement::Insert(i) => {
                assert_eq!(i.table, ObjectName::qualified("phoenix", "rs_1"));
                assert!(matches!(i.source, InsertSource::Select(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        parse_statement("UPDATE invoices SET total = total + 10, touched = TRUE WHERE cust = 5")
            .unwrap();
        parse_statement("DELETE FROM orders WHERE okey BETWEEN 100 AND 200").unwrap();
        parse_statement("DELETE orders WHERE okey = 1").unwrap();
    }

    #[test]
    fn create_table_with_pk() {
        let st = parse_statement(
            "CREATE TABLE dbo.customer (id INT NOT NULL, name VARCHAR(25), balance DECIMAL(12,2), PRIMARY KEY (id))",
        )
        .unwrap();
        match st {
            Statement::CreateTable(c) => {
                assert_eq!(c.columns.len(), 3);
                assert!(c.columns[0].not_null);
                assert_eq!(c.primary_key, vec!["id"]);
                assert_eq!(c.columns[1].type_name, "VARCHAR");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_primary_key() {
        let st = parse_statement("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)").unwrap();
        match st {
            Statement::CreateTable(c) => {
                assert_eq!(c.primary_key, vec!["id"]);
                assert!(c.columns[0].not_null);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_as_select() {
        let st =
            parse_statement("CREATE TABLE phoenix.rs_1 AS SELECT a, b FROM t WHERE a > 1").unwrap();
        match st {
            Statement::CreateTableAs { name, query } => {
                assert_eq!(name, ObjectName::qualified("phoenix", "rs_1"));
                assert_eq!(query.projections.len(), 2);
                assert!(query.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("CREATE TABLE t AS VALUES (1)").is_err());
    }

    #[test]
    fn temp_table() {
        let st = parse_statement("CREATE TABLE #work (v INT)").unwrap();
        match st {
            Statement::CreateTable(c) => assert!(c.name.is_temp()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_variants() {
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS phoenix.rs_1").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
        assert!(matches!(
            parse_statement("DROP PROCEDURE p").unwrap(),
            Statement::DropProc {
                if_exists: false,
                ..
            }
        ));
    }

    #[test]
    fn create_proc_single_statement() {
        let st = parse_statement(
            "CREATE PROCEDURE phoenix.p1 (@t TEXT) AS INSERT INTO dest SELECT * FROM src WHERE name = @t",
        )
        .unwrap();
        match st {
            Statement::CreateProc(p) => {
                assert_eq!(p.params.len(), 1);
                assert_eq!(p.params[0].name, "t");
                assert_eq!(p.body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_proc_block_body() {
        let st =
            parse_statement("CREATE PROC p AS BEGIN INSERT INTO t VALUES (1); SELECT * FROM t END")
                .unwrap();
        match st {
            Statement::CreateProc(p) => assert_eq!(p.body.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn proc_body_with_transaction() {
        let st = parse_statement(
            "CREATE PROC p AS BEGIN BEGIN TRAN; INSERT INTO t VALUES (1); COMMIT END",
        )
        .unwrap();
        match st {
            Statement::CreateProc(p) => {
                assert_eq!(p.body.len(), 3);
                assert_eq!(p.body[0], Statement::Begin);
                assert_eq!(p.body[2], Statement::Commit);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exec_variants() {
        match parse_statement("EXEC phoenix.advance(5, 'rs_1')").unwrap() {
            Statement::Exec(e) => assert_eq!(e.args.len(), 2),
            other => panic!("{other:?}"),
        }
        match parse_statement("EXECUTE p 1, 2").unwrap() {
            Statement::Exec(e) => assert_eq!(e.args.len(), 2),
            other => panic!("{other:?}"),
        }
        match parse_statement("EXEC p").unwrap() {
            Statement::Exec(e) => assert!(e.args.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn txn_statements() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(
            parse_statement("BEGIN TRANSACTION").unwrap(),
            Statement::Begin
        );
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(
            parse_statement("ROLLBACK TRAN").unwrap(),
            Statement::Rollback
        );
    }

    #[test]
    fn set_and_print() {
        match parse_statement("SET lock_timeout 5000").unwrap() {
            Statement::Set { name, .. } => assert_eq!(name, "lock_timeout"),
            other => panic!("{other:?}"),
        }
        match parse_statement("SET autocommit = TRUE").unwrap() {
            Statement::Set { name, .. } => assert_eq!(name, "autocommit"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("PRINT 'hello'").unwrap(),
            Statement::Print(_)
        ));
    }

    #[test]
    fn index_ddl_and_explain() {
        match parse_statement("CREATE INDEX ix_bal ON acct (bal)").unwrap() {
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                assert_eq!(name, "ix_bal");
                assert_eq!(table.canonical(), "dbo.acct");
                assert_eq!(column, "bal");
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("DROP INDEX IF EXISTS ix_bal").unwrap() {
            Statement::DropIndex { name, if_exists } => {
                assert_eq!(name, "ix_bal");
                assert!(if_exists);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DROP INDEX ix_bal").unwrap(),
            Statement::DropIndex {
                if_exists: false,
                ..
            }
        ));
        match parse_statement("EXPLAIN SELECT * FROM t WHERE a = 1").unwrap() {
            Statement::Explain(inner) => assert!(matches!(*inner, Statement::Select(_))),
            other => panic!("{other:?}"),
        }
        // EXPLAIN covers DML too.
        assert!(matches!(
            parse_statement("EXPLAIN UPDATE t SET a = 1").unwrap(),
            Statement::Explain(_)
        ));
        assert!(parse_statement("CREATE INDEX ON t (a)").is_err());
    }

    #[test]
    fn batch_parsing() {
        let stmts = parse_statements("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
        let empty = parse_statements("  ;; ").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn params_in_where() {
        let s = sel("SELECT * FROM orders WHERE cust_id = @cid");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => assert_eq!(*right, Expr::Param("cid".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT o.* FROM orders o");
        assert_eq!(s.projections[0], SelectItem::QualifiedWildcard("o".into()));
    }

    #[test]
    fn negative_numbers_and_unary() {
        sel("SELECT -5, -x, +3.5 FROM t WHERE a = -1");
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_statement("SELECT FROM").unwrap_err();
        assert!(e.message.contains("expected"));
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT 1 2 3 FROM").is_err());
        assert!(parse_statement("INSERT INTO t").is_err());
        assert!(parse_statement("CREATE VIEW v AS SELECT 1").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1; SELECT 2").is_err());
    }
}
