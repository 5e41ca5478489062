//! Recursive-descent parser for the SQL dialect.

use super::ast::*;
use super::lexer::{tokenize, Symbol, Token};
use crate::exec::agg::AggFunc;
use crate::expr::CmpOp;
use crate::value::{DataType, Value};
use crate::{Error, Result};

/// Parses a single SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(Symbol::Semi); // optional trailing semicolon
    if !p.at_end() {
        return Err(Error::Parse(format!(
            "unexpected trailing tokens at position {}",
            p.pos
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
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
            Err(Error::Parse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("explain") {
            Ok(Statement::Explain(self.query()?))
        } else if self.peek_kw("select") {
            Ok(Statement::Select(self.query()?))
        } else if self.peek_kw("create") {
            self.create_table()
        } else if self.peek_kw("insert") {
            self.insert()
        } else if self.peek_kw("delete") {
            self.delete()
        } else if self.peek_kw("update") {
            self.update()
        } else {
            Err(Error::Parse(format!(
                "expected SELECT/CREATE/INSERT/DELETE/UPDATE, found {:?}",
                self.peek()
            )))
        }
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            let v = self.literal()?;
            sets.push((col, v));
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                self.expect_symbol(Symbol::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
            } else if self.eat_kw("foreign") {
                self.expect_kw("key")?;
                self.expect_symbol(Symbol::LParen)?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                self.expect_kw("references")?;
                let ref_table = self.ident()?;
                self.expect_symbol(Symbol::LParen)?;
                let mut ref_cols = Vec::new();
                loop {
                    ref_cols.push(self.ident()?);
                    if !self.eat_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                foreign_keys.push((cols, ref_table, ref_cols));
            } else {
                let col_name = self.ident()?;
                let ty_name = self.ident()?;
                let data_type = match ty_name.to_ascii_lowercase().as_str() {
                    "int" | "integer" | "bigint" => DataType::Int,
                    "float" | "double" | "real" => DataType::Float,
                    "text" | "varchar" | "char" | "string" => DataType::Text,
                    "bool" | "boolean" => DataType::Bool,
                    other => return Err(Error::Parse(format!("unknown type `{other}`"))),
                };
                let mut nullable = true;
                loop {
                    if self.eat_kw("not") {
                        self.expect_kw("null")?;
                        nullable = false;
                    } else if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        primary_key.push(col_name.clone());
                        nullable = false;
                    } else if self.eat_kw("references") {
                        let ref_table = self.ident()?;
                        self.expect_symbol(Symbol::LParen)?;
                        let ref_col = self.ident()?;
                        self.expect_symbol(Symbol::RParen)?;
                        foreign_keys.push((vec![col_name.clone()], ref_table, vec![ref_col]));
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    data_type,
                    nullable,
                });
            }
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
            foreign_keys,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            rows.push(row);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Value::Int(i)),
            Some(Token::Float(f)) => Ok(Value::Float(f)),
            Some(Token::Str(s)) => Ok(Value::from(s)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(Error::Parse(format!("expected literal, found {other:?}"))),
        }
    }

    /// Parses a SELECT query (entry point also used for subquery-free work).
    pub fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        from.push(self.table_ref()?);
        let mut joins = Vec::new();
        loop {
            if self.eat_symbol(Symbol::Comma) {
                from.push(self.table_ref()?);
            } else if self.peek_kw("join") || self.peek_kw("inner") {
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let table = self.table_ref()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                joins.push(JoinClause { table, on });
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.primary_expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
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
                let expr = self.primary_expr()?;
                let descending = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, descending });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(Error::Parse(format!("expected LIMIT count, got {other:?}"))),
            }
        } else {
            None
        };
        let offset = if self.eat_kw("offset") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => n as usize,
                other => {
                    return Err(Error::Parse(format!(
                        "expected OFFSET count, got {other:?}"
                    )))
                }
            }
        } else {
            0
        };
        Ok(Query {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (
            Some(Token::Ident(q)),
            Some(Token::Symbol(Symbol::Dot)),
            Some(Token::Symbol(Symbol::Star)),
        ) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        // Optional alias: an identifier that is not a clause keyword.
        const CLAUSE_KWS: &[&str] = &[
            "join", "inner", "on", "where", "group", "having", "order", "limit", "offset", "as",
        ];
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                Some(self.ident()?)
            }
            _ => {
                if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                }
            }
        };
        Ok(TableRef { table, alias })
    }

    /// expr := or_expr
    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = SqlExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = SqlExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(SqlExpr::Not(Box::new(inner)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<SqlExpr> {
        let left = self.primary_expr()?;
        // Comparison operators
        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(CmpOp::Eq),
            Some(Token::Symbol(Symbol::Ne)) => Some(CmpOp::Ne),
            Some(Token::Symbol(Symbol::Lt)) => Some(CmpOp::Lt),
            Some(Token::Symbol(Symbol::Le)) => Some(CmpOp::Le),
            Some(Token::Symbol(Symbol::Gt)) => Some(CmpOp::Gt),
            Some(Token::Symbol(Symbol::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.primary_expr()?;
            return Ok(SqlExpr::Cmp(op, Box::new(left), Box::new(right)));
        }
        if self.eat_kw("like") {
            match self.next() {
                Some(Token::Str(p)) => return Ok(SqlExpr::Like(Box::new(left), p)),
                other => {
                    return Err(Error::Parse(format!(
                        "expected LIKE pattern, got {other:?}"
                    )))
                }
            }
        }
        if self.peek_kw("not") {
            // NOT LIKE
            let save = self.pos;
            self.pos += 1;
            if self.eat_kw("like") {
                match self.next() {
                    Some(Token::Str(p)) => return Ok(SqlExpr::NotLike(Box::new(left), p)),
                    other => {
                        return Err(Error::Parse(format!(
                            "expected NOT LIKE pattern, got {other:?}"
                        )))
                    }
                }
            }
            self.pos = save;
        }
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(SqlExpr::InList(Box::new(left), list));
        }
        if self.eat_kw("is") {
            if self.eat_kw("not") {
                self.expect_kw("null")?;
                return Ok(SqlExpr::IsNotNull(Box::new(left)));
            }
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull(Box::new(left)));
        }
        Ok(left)
    }

    /// primary := literal | aggregate | column | '(' expr ')'
    fn primary_expr(&mut self) -> Result<SqlExpr> {
        match self.peek() {
            Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                Ok(SqlExpr::Literal(self.literal()?))
            }
            Some(Token::Symbol(Symbol::LParen)) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lname = name.to_ascii_lowercase();
                if lname == "null" || lname == "true" || lname == "false" {
                    return Ok(SqlExpr::Literal(self.literal()?));
                }
                let agg = match lname.as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "avg" => Some(AggFunc::Avg),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    _ => None,
                };
                if let Some(func) = agg {
                    if self.tokens.get(self.pos + 1) == Some(&Token::Symbol(Symbol::LParen)) {
                        self.pos += 2; // name + (
                        if self.eat_symbol(Symbol::Star) {
                            self.expect_symbol(Symbol::RParen)?;
                            if func != AggFunc::Count {
                                return Err(Error::Parse("only COUNT accepts `*` as input".into()));
                            }
                            return Ok(SqlExpr::Aggregate { func, input: None });
                        }
                        let inner = self.primary_expr()?;
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(SqlExpr::Aggregate {
                            func,
                            input: Some(Box::new(inner)),
                        });
                    }
                }
                // Column reference, possibly qualified.
                let first = self.ident()?;
                if self.eat_symbol(Symbol::Dot) {
                    let second = self.ident()?;
                    Ok(SqlExpr::Column(format!("{first}.{second}")))
                } else {
                    Ok(SqlExpr::Column(first))
                }
            }
            other => Err(Error::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_query(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Select(q) => q,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let q = parse_query("SELECT title, year FROM Papers WHERE year >= 2005");
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from[0].table, "Papers");
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn join_on() {
        let q = parse_query(
            "SELECT p.title FROM Papers p JOIN Conferences c ON p.conference_id = c.id \
             WHERE c.acronym = 'SIGMOD'",
        );
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].table.effective_alias(), "c");
    }

    #[test]
    fn comma_from_with_aliases() {
        let q = parse_query("SELECT * FROM Papers p, Authors a WHERE p.id = a.id");
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].effective_alias(), "p");
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = parse_query(
            "SELECT a.name, COUNT(*) AS n FROM Authors a GROUP BY a.name \
             HAVING COUNT(*) > 2 ORDER BY n DESC, a.name LIMIT 3",
        );
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert_eq!(q.limit, Some(3));
    }

    #[test]
    fn like_and_in_and_null() {
        let q = parse_query(
            "SELECT * FROM T WHERE a LIKE '%user%' AND b IN (1, 2) AND c IS NOT NULL \
             AND d NOT LIKE 'x%'",
        );
        let w = q.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 4);
    }

    #[test]
    fn distinct_and_wildcards() {
        let q = parse_query("SELECT DISTINCT p.*, c.acronym FROM Papers p, Conferences c");
        assert!(q.distinct);
        assert!(matches!(q.items[0], SelectItem::QualifiedWildcard(ref s) if s == "p"));
    }

    #[test]
    fn create_table_with_keys() {
        let stmt = parse_statement(
            "CREATE TABLE Papers (id INT PRIMARY KEY, conference_id INT REFERENCES Conferences(id), \
             title TEXT NOT NULL)",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                foreign_keys,
            } => {
                assert_eq!(name, "Papers");
                assert_eq!(columns.len(), 3);
                assert_eq!(primary_key, vec!["id"]);
                assert_eq!(foreign_keys.len(), 1);
                assert!(!columns[2].nullable);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn composite_keys() {
        let stmt = parse_statement(
            "CREATE TABLE Paper_Authors (paper_id INT, author_id INT, \
             PRIMARY KEY (paper_id, author_id), \
             FOREIGN KEY (paper_id) REFERENCES Papers (id), \
             FOREIGN KEY (author_id) REFERENCES Authors (id))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                primary_key,
                foreign_keys,
                ..
            } => {
                assert_eq!(primary_key, vec!["paper_id", "author_id"]);
                assert_eq!(foreign_keys.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_rows() {
        let stmt =
            parse_statement("INSERT INTO T VALUES (1, 'a', NULL), (2, 'b''c', 3.5)").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "T");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][2], Value::Null);
                assert_eq!(rows[1][1], Value::Text("b'c".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT * FROM T garbage garbage").is_err());
        assert!(parse_statement("SELECT * FROM T;").is_ok());
    }

    #[test]
    fn or_precedence() {
        let q = parse_query("SELECT * FROM T WHERE a = 1 OR b = 2 AND c = 3");
        // AND binds tighter: OR(a=1, AND(b=2, c=3))
        match q.where_clause.unwrap() {
            SqlExpr::Or(_, rhs) => assert!(matches!(*rhs, SqlExpr::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }
}
