//! Column and schema definitions.

use std::fmt;
use std::sync::Arc;

use crate::datatype::DataType;
use crate::error::{Error, Result};
use crate::row::Row;

/// One column of a table, stream, or intermediate relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-cased by the analyzer; case-insensitive lookup).
    pub name: String,
    /// Logical type.
    pub ty: DataType,
    /// Whether NULL is permitted. Enforced on table/stream ingest.
    pub nullable: bool,
}

impl Column {
    /// A nullable column — the common case for query outputs.
    pub fn new(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, ty: DataType) -> Column {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// Whether every value of column `from` goes into this one through
    /// [`Schema::coerce_row`]: the cast cannot fail, and a NOT NULL
    /// column takes only a NOT NULL one.
    pub fn takes(&self, from: &Column) -> bool {
        from.ty.always_casts_to(self.ty) && (self.nullable || !from.nullable)
    }
}

/// An ordered list of columns describing a relation or stream.
///
/// Schemas are immutable once built and shared via [`Arc`] (see
/// [`SchemaRef`]); operators that reshape rows build new schemas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

/// Shared schema handle used throughout the executor.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from columns, rejecting duplicate names.
    pub fn new(columns: Vec<Column>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i]
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(Error::catalog(format!(
                    "duplicate column name `{}`",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Build a schema allowing duplicate names (query outputs may legally
    /// repeat names, e.g. `SELECT a, a FROM t`).
    pub fn new_unchecked(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Empty schema (zero columns).
    pub fn empty() -> Schema {
        Schema { columns: vec![] }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Position of the column with the given (case-insensitive) name.
    /// Errors if the name is missing or ambiguous.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(Error::analysis(format!("ambiguous column `{name}`")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| Error::analysis(format!("unknown column `{name}`")))
    }

    /// Concatenate two schemas (for join outputs).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Validate that a row conforms to this schema: arity, types (NULL is
    /// allowed only for nullable columns, ints silently widen to declared
    /// float columns). Returns a row coerced to the declared types.
    pub fn coerce_row(&self, mut row: Row) -> Result<Row> {
        if row.len() != self.columns.len() {
            return Err(Error::type_err(format!(
                "row has {} values but schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(Error::type_err(format!(
                        "NULL value for NOT NULL column `{}`",
                        c.name
                    )));
                }
            } else if v.data_type() != Some(c.ty) {
                let (name, ty) = (&c.name, c.ty);
                let wrong = || format!("value {v} has wrong type for column `{name}` ({ty})");
                *v = v.cast(ty).map_err(|_| Error::type_err(wrong()))?;
            }
        }
        Ok(row)
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.ty)?;
        if !self.nullable {
            write!(f, " not null")?;
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn url_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("url", DataType::Text),
            Column::not_null("atime", DataType::Timestamp),
            Column::new("client_ip", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("A", DataType::Text),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn index_lookup_case_insensitive() {
        let s = url_schema();
        assert_eq!(s.index_of("URL").unwrap(), 0);
        assert_eq!(s.index_of("client_ip").unwrap(), 2);
        assert!(s.index_of("nope").is_err());
    }

    #[test]
    fn ambiguous_lookup_errors() {
        let s = Schema::new_unchecked(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Int),
        ]);
        assert!(matches!(s.index_of("a"), Err(Error::Analysis(_))));
    }

    #[test]
    fn join_concatenates() {
        let a = url_schema();
        let b = Schema::new(vec![Column::new("cnt", DataType::Int)]).unwrap();
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert_eq!(j.column(3).name, "cnt");
    }

    #[test]
    fn coerce_row_checks_arity_and_nulls() {
        let s = url_schema();
        assert!(s.coerce_row(vec![Value::text("x")]).is_err());
        let bad_null = vec![Value::Null, Value::Timestamp(0), Value::Null];
        assert!(s.coerce_row(bad_null).is_err());
        let ok = vec![Value::text("/a"), Value::Timestamp(5), Value::Null];
        assert_eq!(s.coerce_row(ok.clone()).unwrap(), ok);
    }

    #[test]
    fn coerce_row_widens_and_casts() {
        let s = Schema::new(vec![
            Column::new("f", DataType::Float),
            Column::new("t", DataType::Timestamp),
        ])
        .unwrap();
        let out = s.coerce_row(vec![Value::Int(3), Value::Int(1000)]).unwrap();
        assert_eq!(out, vec![Value::Float(3.0), Value::Timestamp(1000)]);
    }

    #[test]
    fn coerce_row_rejects_uncastable() {
        let s = Schema::new(vec![Column::new("n", DataType::Int)]).unwrap();
        assert!(s.coerce_row(vec![Value::text("not a number")]).is_err());
    }

    /// Values of type `ty`: zero, the extremes, and for text, strings that
    /// parse as each type and one that parses as none.
    fn samples(ty: DataType) -> Vec<Value> {
        match ty {
            DataType::Bool => vec![Value::Bool(false), Value::Bool(true)],
            DataType::Int => vec![Value::Int(0), Value::Int(i64::MIN), Value::Int(i64::MAX)],
            DataType::Float => [0.0, f64::MIN, f64::MAX, f64::NAN, f64::INFINITY, 1e300]
                .map(Value::Float)
                .to_vec(),
            DataType::Text => [
                "0",
                "1.5",
                "true",
                "2009-01-04 00:01:00",
                "1 minute",
                "x",
                "",
            ]
            .map(Value::text)
            .to_vec(),
            DataType::Timestamp => [0, i64::MIN, i64::MAX].map(Value::Timestamp).to_vec(),
            DataType::Interval => [0, i64::MIN, i64::MAX].map(Value::Interval).to_vec(),
        }
    }

    #[test]
    fn a_column_takes_exactly_what_coerce_row_never_refuses() {
        use DataType::*;
        let types = [Bool, Int, Float, Text, Timestamp, Interval];
        let column = |ty, nullable| Column {
            name: "c".into(),
            ty,
            nullable,
        };
        for (from_ty, from_null) in types.iter().flat_map(|&t| [(t, false), (t, true)]) {
            let from = column(from_ty, from_null);
            let mut values = samples(from_ty);
            if from_null {
                values.push(Value::Null);
            }
            for (to_ty, to_null) in types.iter().flat_map(|&t| [(t, false), (t, true)]) {
                let to = column(to_ty, to_null);
                let schema = Schema::new(vec![to.clone()]).unwrap();
                let refused: Vec<&Value> = (values.iter())
                    .filter(|v| schema.coerce_row(vec![(*v).clone()]).is_err())
                    .collect();
                if to.takes(&from) {
                    assert!(refused.is_empty(), "{from:?} -> {to:?} refuses {refused:?}");
                } else {
                    assert!(!refused.is_empty(), "{from:?} -> {to:?} refuses no sample");
                }
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let s = url_schema();
        let d = s.to_string();
        assert!(d.contains("url varchar not null"), "{d}");
        assert!(d.contains("client_ip varchar"), "{d}");
    }
}
