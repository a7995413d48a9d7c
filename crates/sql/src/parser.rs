//! Recursive-descent parser for TruSQL.
//!
//! Standard SQL plus the paper's extensions: the only syntax the paper adds
//! to SELECT is the window clause on stream references (§3.1), plus the
//! stream/channel DDL forms. The grammar and operator precedence follow
//! PostgreSQL conventions.

use streamrel_types::{parse_interval, parse_timestamp, DataType, Error, Result, Value};

use crate::ast::*;
use crate::lexer::{lex, SpannedToken, Sym, Token};

/// Parse exactly one statement (trailing semicolon optional).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut stmts = parse_statements(sql)?;
    match (stmts.pop(), stmts.len()) {
        (Some(stmt), 0) => Ok(stmt),
        (None, _) => Err(Error::parse("empty statement")),
        (Some(_), n) => Err(Error::parse(format!(
            "expected one statement, found {}",
            n + 1
        ))),
    }
}

/// Parse a semicolon-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_sym(Sym::Semicolon) {}
        if p.at_end() {
            break;
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.eat_sym(Sym::Semicolon) {
            return Err(p.err_here("expected `;` or end of input"));
        }
    }
    Ok(out)
}

/// Words that terminate an implicit alias.
const RESERVED: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "on", "join", "inner", "left", "right",
    "full", "cross", "and", "or", "not", "as", "union", "select", "when", "then", "else", "end",
    "asc", "desc", "between", "in", "like", "is", "into", "values", "set",
];

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: &str) -> Error {
        match self.tokens.get(self.pos) {
            Some(t) => Error::parse(format!(
                "{msg} (at offset {}, near {:?})",
                t.offset, t.token
            )),
            None => Error::parse(format!("{msg} (at end of input)")),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err_here(&format!("expected `{}`", kw.to_uppercase())))
        }
    }

    fn peek_sym(&self, sym: Sym) -> bool {
        matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym)
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if self.peek_sym(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: Sym) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.err_here(&format!("expected `{sym:?}`")))
        }
    }

    /// Consume an identifier (quoted or not). Unquoted names are
    /// lower-cased per SQL convention.
    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s.to_ascii_lowercase()),
            Some(Token::QuotedIdent(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected identifier"))
            }
        }
    }

    fn int_lit(&mut self) -> Result<i64> {
        match self.advance() {
            Some(Token::IntLit(v)) => Ok(v),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected integer literal"))
            }
        }
    }

    fn string_lit(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::StringLit(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err_here("expected string literal"))
            }
        }
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("create") {
            self.create()
        } else if self.peek_kw("drop") {
            self.drop_stmt()
        } else if self.peek_kw("insert") {
            self.insert()
        } else if self.peek_kw("delete") {
            self.delete()
        } else if self.peek_kw("truncate") {
            self.pos += 1;
            self.eat_kw("table");
            Ok(Statement::Truncate {
                table: self.ident()?,
            })
        } else if self.peek_kw("select") {
            Ok(Statement::Select(self.query()?))
        } else if self.eat_kw("explain") {
            if self.eat_kw("check") {
                Ok(Statement::ExplainCheck(self.query()?))
            } else {
                Ok(Statement::Explain(self.query()?))
            }
        } else if self.eat_kw("show") {
            let kind = if self.eat_kw("tables") {
                ShowKind::Tables
            } else if self.eat_kw("streams") {
                ShowKind::Streams
            } else if self.eat_kw("views") {
                ShowKind::Views
            } else if self.eat_kw("channels") {
                ShowKind::Channels
            } else if self.eat_kw("metrics") {
                ShowKind::Metrics
            } else if self.eat_kw("trace") {
                ShowKind::Trace
            } else {
                return Err(
                    self.err_here("expected TABLES, STREAMS, VIEWS, CHANNELS, METRICS or TRACE")
                );
            };
            Ok(Statement::Show(kind))
        } else if self.eat_kw("checkpoint") {
            Ok(Statement::Checkpoint)
        } else if self.eat_kw("vacuum") {
            Ok(Statement::Vacuum)
        } else {
            Err(self.err_here("expected a statement"))
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("table") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.ident()?;
            if self.eat_kw("as") {
                let query = self.query()?;
                return Ok(Statement::CreateTableAs { name, query });
            }
            let columns = self.column_defs()?;
            Ok(Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            })
        } else if self.eat_kw("stream") {
            let if_not_exists = self.if_not_exists()?;
            let name = self.ident()?;
            if self.eat_kw("as") {
                let query = self.query()?;
                Ok(Statement::CreateDerivedStream { name, query })
            } else {
                let columns = self.column_defs()?;
                Ok(Statement::CreateStream {
                    name,
                    columns,
                    if_not_exists,
                })
            }
        } else if self.eat_kw("view") {
            let name = self.ident()?;
            self.expect_kw("as")?;
            let query = self.query()?;
            Ok(Statement::CreateView { name, query })
        } else if self.eat_kw("channel") {
            let name = self.ident()?;
            self.expect_kw("from")?;
            let from_stream = self.ident()?;
            self.expect_kw("into")?;
            let into_table = self.ident()?;
            let mode = if self.eat_kw("append") {
                ChannelMode::Append
            } else if self.eat_kw("replace") {
                ChannelMode::Replace
            } else {
                return Err(self.err_here("expected APPEND or REPLACE"));
            };
            Ok(Statement::CreateChannel {
                name,
                from_stream,
                into_table,
                mode,
            })
        } else if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_sym(Sym::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat_sym(Sym::Comma) {
                columns.push(self.ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Ok(Statement::CreateIndex {
                name,
                table,
                columns,
            })
        } else {
            Err(self.err_here("expected TABLE, STREAM, VIEW, CHANNEL or INDEX"))
        }
    }

    fn if_not_exists(&mut self) -> Result<bool> {
        if self.eat_kw("if") {
            self.expect_kw("not")?;
            self.expect_kw("exists")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn column_defs(&mut self) -> Result<Vec<ColumnDef>> {
        self.expect_sym(Sym::LParen)?;
        let mut cols = Vec::new();
        loop {
            let name = self.ident()?;
            let ty = self.type_name()?;
            let mut not_null = false;
            let mut cqtime_user = false;
            loop {
                if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    not_null = true;
                } else if self.eat_kw("cqtime") {
                    // `CQTIME USER`: data-carried time; `CQTIME SYSTEM`
                    // would be arrival time (we accept the keyword and
                    // treat the column as system-assigned).
                    if !self.eat_kw("user") && !self.eat_kw("system") {
                        return Err(self.err_here("expected USER or SYSTEM after CQTIME"));
                    }
                    cqtime_user = true;
                    not_null = true;
                } else if self.eat_kw("primary") {
                    // Accept and ignore PRIMARY KEY (no constraint engine).
                    self.expect_kw("key")?;
                } else {
                    break;
                }
            }
            cols.push(ColumnDef {
                name,
                ty,
                not_null,
                cqtime_user,
            });
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        Ok(cols)
    }

    fn type_name(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        // Two-word forms: DOUBLE PRECISION.
        let name = if name == "double" && self.eat_kw("precision") {
            "double".to_string()
        } else {
            name
        };
        let ty = DataType::from_sql_name(&name)
            .ok_or_else(|| Error::parse(format!("unknown type `{name}`")))?;
        // Optional length/precision parameter, ignored: varchar(1024).
        if self.eat_sym(Sym::LParen) {
            self.int_lit()?;
            if self.eat_sym(Sym::Comma) {
                self.int_lit()?;
            }
            self.expect_sym(Sym::RParen)?;
        }
        Ok(ty)
    }

    fn drop_stmt(&mut self) -> Result<Statement> {
        self.expect_kw("drop")?;
        let kind = if self.eat_kw("table") {
            ObjectKind::Table
        } else if self.eat_kw("stream") {
            ObjectKind::Stream
        } else if self.eat_kw("view") {
            ObjectKind::View
        } else if self.eat_kw("channel") {
            ObjectKind::Channel
        } else if self.eat_kw("index") {
            ObjectKind::Index
        } else {
            return Err(self.err_here("expected object kind after DROP"));
        };
        let if_exists = if self.eat_kw("if") {
            self.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::Drop {
            kind,
            name,
            if_exists,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.peek_sym(Sym::LParen) {
            self.expect_sym(Sym::LParen)?;
            let mut cols = vec![self.ident()?];
            while self.eat_sym(Sym::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // ---- queries ------------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projection = vec![self.select_item()?];
        while self.eat_sym(Sym::Comma) {
            projection.push(self.select_item()?);
        }
        let from = if self.eat_kw("from") {
            Some(self.parse_from_clause()?)
        } else {
            None
        };
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat_sym(Sym::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            Some(self.int_lit()? as u64)
        } else {
            None
        };
        Ok(Query {
            projection,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            distinct,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form
        if let (
            Some(Token::Ident(_)),
            Some(Token::Symbol(Sym::Dot)),
            Some(Token::Symbol(Sym::Star)),
        ) = (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let q = self.ident()?;
            self.expect_sym(Sym::Dot)?;
            self.expect_sym(Sym::Star)?;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            self.implicit_alias()
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// An identifier used as an alias without AS, unless it is reserved.
    fn implicit_alias(&mut self) -> Option<String> {
        match self.peek() {
            Some(Token::Ident(s)) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                let s = s.to_ascii_lowercase();
                self.pos += 1;
                Some(s)
            }
            Some(Token::QuotedIdent(s)) => {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
            _ => None,
        }
    }

    fn parse_from_clause(&mut self) -> Result<TableRef> {
        let mut left = self.join_chain()?;
        while self.eat_sym(Sym::Comma) {
            let right = self.join_chain()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind: JoinKind::Cross,
                on: None,
            };
        }
        Ok(left)
    }

    fn join_chain(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.eat_kw("join") {
                JoinKind::Inner
            } else if self.peek_kw("inner")
                && self.peek_at(1).map(|t| t.is_kw("join")) == Some(true)
            {
                self.pos += 2;
                JoinKind::Inner
            } else if self.peek_kw("left") {
                self.pos += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.peek_kw("cross")
                && self.peek_at(1).map(|t| t.is_kw("join")) == Some(true)
            {
                self.pos += 2;
                let right = self.table_primary()?;
                left = TableRef::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind: JoinKind::Cross,
                    on: None,
                };
                continue;
            } else {
                break;
            };
            let right = self.table_primary()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on: Some(on),
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_sym(Sym::LParen) {
            let query = self.query()?;
            self.expect_sym(Sym::RParen)?;
            let alias = if self.eat_kw("as") {
                self.ident()?
            } else {
                self.implicit_alias()
                    .ok_or_else(|| self.err_here("subquery in FROM requires an alias"))?
            };
            let window = self.maybe_window()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
                window,
            });
        }
        let name = self.ident()?;
        // Window may come before or after the alias; the paper writes
        // `FROM url_stream <VISIBLE ...>` (no alias) and
        // `FROM urls_now <slices 1 windows>` inside an aliased subquery.
        let mut window = self.maybe_window()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            self.implicit_alias()
        };
        if window.is_none() {
            window = self.maybe_window()?;
        }
        Ok(TableRef::Named {
            name,
            alias,
            window,
        })
    }

    fn maybe_window(&mut self) -> Result<Option<WindowSpec>> {
        if !self.peek_sym(Sym::Lt) {
            return Ok(None);
        }
        self.expect_sym(Sym::Lt)?;
        let spec = if self.eat_kw("visible") {
            match self.peek() {
                Some(Token::StringLit(_)) => {
                    let visible = parse_interval(&self.string_lit()?)?;
                    self.expect_kw("advance")?;
                    let advance = parse_interval(&self.string_lit()?)?;
                    if visible <= 0 || advance <= 0 {
                        return Err(Error::parse("window intervals must be positive"));
                    }
                    WindowSpec::Time { visible, advance }
                }
                Some(Token::IntLit(_)) => {
                    let visible = self.int_lit()? as u64;
                    self.expect_kw("rows")?;
                    self.expect_kw("advance")?;
                    let advance = self.int_lit()? as u64;
                    self.expect_kw("rows")?;
                    if visible == 0 || advance == 0 {
                        return Err(Error::parse("row windows must be positive"));
                    }
                    WindowSpec::Rows { visible, advance }
                }
                _ => return Err(self.err_here("expected interval string or row count")),
            }
        } else if self.eat_kw("tumbling") {
            let iv = parse_interval(&self.string_lit()?)?;
            if iv <= 0 {
                return Err(Error::parse("window intervals must be positive"));
            }
            WindowSpec::tumbling(iv)
        } else if self.eat_kw("slices") {
            let count = self.int_lit()? as u64;
            self.expect_kw("windows")?;
            if count == 0 {
                return Err(Error::parse("slices count must be positive"));
            }
            WindowSpec::Slices { count }
        } else {
            return Err(self.err_here("expected VISIBLE, TUMBLING or SLICES"));
        };
        self.expect_sym(Sym::Gt)?;
        Ok(Some(spec))
    }

    // ---- expressions (Pratt) ----------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN / LIKE
        let negated = if self.peek_kw("not")
            && matches!(self.peek_at(1), Some(t) if t.is_kw("between") || t.is_kw("in") || t.is_kw("like"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("between") {
            let low = self.additive()?;
            self.expect_kw("and")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("in") {
            self.expect_sym(Sym::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_sym(Sym::Comma) {
                list.push(self.expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err_here("expected BETWEEN, IN or LIKE after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinaryOp::Eq),
            Some(Token::Symbol(Sym::Neq)) => Some(BinaryOp::Neq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinaryOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinaryOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinaryOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinaryOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinaryOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinaryOp::Sub,
                Some(Token::Symbol(Sym::Concat)) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinaryOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinaryOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_sym(Sym::Minus) {
            let e = self.unary()?;
            // Fold negative literals immediately.
            if let Expr::Literal(Value::Int(i)) = e {
                return Ok(Expr::Literal(Value::Int(-i)));
            }
            if let Expr::Literal(Value::Float(f)) = e {
                return Ok(Expr::Literal(Value::Float(-f)));
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e),
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.eat_sym(Sym::DoubleColon) {
            let ty = self.type_name()?;
            e = Expr::Cast {
                expr: Box::new(e),
                ty,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::IntLit(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(v)))
            }
            Some(Token::FloatLit(v)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(v)))
            }
            Some(Token::StringLit(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::text(s)))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Symbol(Sym::Star)) => {
                Err(self.err_here("`*` is only valid in SELECT list or count(*)"))
            }
            Some(Token::Ident(_)) | Some(Token::QuotedIdent(_)) => self.ident_expr(),
            _ => Err(self.err_here("expected expression")),
        }
    }

    fn ident_expr(&mut self) -> Result<Expr> {
        // Keyword literals and prefixed typed literals.
        if self.eat_kw("null") {
            return Ok(Expr::Literal(Value::Null));
        }
        if self.eat_kw("true") {
            return Ok(Expr::Literal(Value::Bool(true)));
        }
        if self.eat_kw("false") {
            return Ok(Expr::Literal(Value::Bool(false)));
        }
        if self.peek_kw("interval") && matches!(self.peek_at(1), Some(Token::StringLit(_))) {
            self.pos += 1;
            let s = self.string_lit()?;
            return Ok(Expr::Literal(Value::Interval(parse_interval(&s)?)));
        }
        if self.peek_kw("timestamp") && matches!(self.peek_at(1), Some(Token::StringLit(_))) {
            self.pos += 1;
            let s = self.string_lit()?;
            return Ok(Expr::Literal(Value::Timestamp(parse_timestamp(&s)?)));
        }
        if self.peek_kw("case") {
            return self.case_expr();
        }
        if self.peek_kw("cast") && self.peek_at(1) == Some(&Token::Symbol(Sym::LParen)) {
            self.pos += 2;
            let e = self.expr()?;
            self.expect_kw("as")?;
            let ty = self.type_name()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Cast {
                expr: Box::new(e),
                ty,
            });
        }
        if let Some(Token::Ident(s)) = self.peek() {
            if RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                return Err(self.err_here("expected expression"));
            }
        }
        let name = self.ident()?;
        // Function call?
        if self.peek_sym(Sym::LParen) {
            self.pos += 1;
            if self.eat_sym(Sym::Star) {
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Function {
                    name,
                    args: vec![],
                    star: true,
                    distinct: false,
                });
            }
            let distinct = self.eat_kw("distinct");
            let mut args = Vec::new();
            if !self.peek_sym(Sym::RParen) {
                args.push(self.expr()?);
                while self.eat_sym(Sym::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Function {
                name,
                args,
                star: false,
                distinct,
            });
        }
        // Qualified column?
        if self.eat_sym(Sym::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column {
                qualifier: Some(name),
                name: col,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name,
        })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("case")?;
        let operand = if !self.peek_kw("when") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut whens = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let result = self.expr()?;
            whens.push((cond, result));
        }
        if whens.is_empty() {
            return Err(self.err_here("CASE requires at least one WHEN"));
        }
        let else_expr = if self.eat_kw("else") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("end")?;
        Ok(Expr::Case {
            operand,
            whens,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::time::{MINUTES, WEEKS};

    #[test]
    fn parses_paper_example_1_create_stream() {
        let s = parse_statement(
            "CREATE STREAM url_stream ( url varchar(1024), \
             atime timestamp CQTIME USER, client_ip varchar(50) )",
        )
        .unwrap();
        match s {
            Statement::CreateStream { name, columns, .. } => {
                assert_eq!(name, "url_stream");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0].ty, DataType::Text);
                assert!(columns[1].cqtime_user);
                assert_eq!(columns[1].ty, DataType::Timestamp);
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parses_paper_example_2_cq() {
        let s = parse_statement(
            "SELECT url, count(*) url_count \
             FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> \
             GROUP by url ORDER by url_count desc LIMIT 10",
        )
        .unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.projection.len(), 2);
        match &q.projection[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("url_count")),
            _ => panic!(),
        }
        match q.from.unwrap() {
            TableRef::Named { name, window, .. } => {
                assert_eq!(name, "url_stream");
                assert_eq!(
                    window,
                    Some(WindowSpec::Time {
                        visible: 5 * MINUTES,
                        advance: MINUTES
                    })
                );
            }
            _ => panic!(),
        }
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_paper_example_3_derived_stream() {
        let s = parse_statement(
            "CREATE STREAM urls_now as SELECT url, count(*) as scnt, cq_close(*) \
             FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP by url",
        )
        .unwrap();
        match s {
            Statement::CreateDerivedStream { name, query } => {
                assert_eq!(name, "urls_now");
                assert_eq!(query.projection.len(), 3);
                match &query.projection[2] {
                    SelectItem::Expr {
                        expr: Expr::Function { name, star, .. },
                        ..
                    } => {
                        assert_eq!(name, "cq_close");
                        assert!(star);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_paper_example_4_channel() {
        let s =
            parse_statement("CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive APPEND")
                .unwrap();
        assert_eq!(
            s,
            Statement::CreateChannel {
                name: "urls_channel".into(),
                from_stream: "urls_now".into(),
                into_table: "urls_archive".into(),
                mode: ChannelMode::Append,
            }
        );
    }

    #[test]
    fn parses_paper_example_5_historical_join() {
        let s = parse_statement(
            "select c.scnt, h.scnt, c.stime from \
             (select sum(scnt) as scnt, cq_close(*) as stime \
              from urls_now <slices 1 windows>) c, urls_archive h \
             where c.stime - '1 week'::interval = h.stime",
        )
        .unwrap();
        let Statement::Select(q) = s else { panic!() };
        // FROM is a cross join of a windowed subquery and a table.
        match q.from.as_ref().unwrap() {
            TableRef::Join {
                left, right, kind, ..
            } => {
                assert_eq!(*kind, JoinKind::Cross);
                match left.as_ref() {
                    TableRef::Subquery { alias, query, .. } => {
                        assert_eq!(alias, "c");
                        match query.from.as_ref().unwrap() {
                            TableRef::Named { name, window, .. } => {
                                assert_eq!(name, "urls_now");
                                assert_eq!(window, &Some(WindowSpec::Slices { count: 1 }));
                            }
                            _ => panic!(),
                        }
                    }
                    _ => panic!("left must be subquery"),
                }
                match right.as_ref() {
                    TableRef::Named { name, alias, .. } => {
                        assert_eq!(name, "urls_archive");
                        assert_eq!(alias.as_deref(), Some("h"));
                    }
                    _ => panic!(),
                }
            }
            other => panic!("{other:?}"),
        }
        // WHERE contains the interval cast.
        let w = q.filter.unwrap();
        let found_cast = format!("{w:?}").contains(&format!("Interval({WEEKS})"))
            || format!("{w:?}").contains("Cast");
        assert!(found_cast, "{w:?}");
    }

    #[test]
    fn window_before_or_after_alias() {
        for sql in [
            "select * from s <tumbling '1 minute'> x",
            "select * from s x <tumbling '1 minute'>",
            "select * from s as x <tumbling '1 minute'>",
        ] {
            let Statement::Select(q) = parse_statement(sql).unwrap() else {
                panic!()
            };
            match q.from.unwrap() {
                TableRef::Named { alias, window, .. } => {
                    assert_eq!(alias.as_deref(), Some("x"), "{sql}");
                    assert!(window.is_some(), "{sql}");
                }
                _ => panic!(),
            }
        }
    }

    #[test]
    fn row_window() {
        let Statement::Select(q) =
            parse_statement("select * from s <visible 100 rows advance 10 rows>").unwrap()
        else {
            panic!()
        };
        match q.from.unwrap() {
            TableRef::Named { window, .. } => {
                assert_eq!(
                    window,
                    Some(WindowSpec::Rows {
                        visible: 100,
                        advance: 10
                    })
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn join_syntax() {
        let Statement::Select(q) =
            parse_statement("select * from a join b on a.x = b.y left join c on b.z = c.z")
                .unwrap()
        else {
            panic!()
        };
        match q.from.unwrap() {
            TableRef::Join { kind, left, .. } => {
                assert_eq!(kind, JoinKind::Left);
                match *left {
                    TableRef::Join { kind, .. } => assert_eq!(kind, JoinKind::Inner),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_and_delete() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            _ => panic!(),
        }
        let s = parse_statement("DELETE FROM t WHERE a > 5").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn expressions_precedence() {
        let Statement::Select(q) = parse_statement("select 1 + 2 * 3 = 7 and not false").unwrap()
        else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &q.projection[0] else {
            panic!()
        };
        // Outermost must be AND.
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn case_between_in_like_isnull() {
        let sql = "select case when a > 1 then 'big' else 'small' end, \
                   b between 1 and 10, c in (1,2,3), d like 'x%', e is not null from t";
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        assert_eq!(q.projection.len(), 5);
    }

    #[test]
    fn typed_literals() {
        let Statement::Select(q) =
            parse_statement("select interval '5 minutes', timestamp '2009-01-04'").unwrap()
        else {
            panic!()
        };
        match &q.projection[0] {
            SelectItem::Expr {
                expr: Expr::Literal(Value::Interval(iv)),
                ..
            } => assert_eq!(*iv, 5 * MINUTES),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_forms() {
        let a = parse_statement("select '1 week'::interval").unwrap();
        let b = parse_statement("select cast('1 week' as interval)").unwrap();
        // Both are casts of the same literal.
        let get = |s: &Statement| -> Expr {
            let Statement::Select(q) = s else { panic!() };
            let SelectItem::Expr { expr, .. } = &q.projection[0] else {
                panic!()
            };
            expr.clone()
        };
        assert_eq!(get(&a), get(&b));
    }

    #[test]
    fn multiple_statements() {
        let stmts =
            parse_statements("create table t (a int); insert into t values (1); select * from t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_messages_have_context() {
        let e = parse_statement("select from").unwrap_err();
        assert!(matches!(e, Error::Parse(_)));
        let e = parse_statement("create channel c from s into t").unwrap_err();
        assert!(e.to_string().contains("APPEND or REPLACE"), "{e}");
    }

    #[test]
    fn negative_window_rejected() {
        assert!(
            parse_statement("select * from s <visible '0 minutes' advance '1 minute'>").is_err()
        );
        assert!(parse_statement("select * from s <slices 0 windows>").is_err());
    }

    #[test]
    fn truncate_and_drop() {
        assert_eq!(
            parse_statement("truncate table t").unwrap(),
            Statement::Truncate { table: "t".into() }
        );
        assert_eq!(
            parse_statement("drop stream if exists s").unwrap(),
            Statement::Drop {
                kind: ObjectKind::Stream,
                name: "s".into(),
                if_exists: true
            }
        );
    }

    #[test]
    fn distinct_and_qualified_wildcard() {
        let Statement::Select(q) =
            parse_statement("select distinct t.*, count(distinct x) from t").unwrap()
        else {
            panic!()
        };
        assert!(q.distinct);
        assert!(matches!(&q.projection[0], SelectItem::QualifiedWildcard(a) if a == "t"));
        match &q.projection[1] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(distinct),
            _ => panic!(),
        }
    }
}
