//! Logical data types for columns and expressions.

use std::fmt;

/// The SQL data types supported by streamrel.
///
/// The set mirrors what the paper's TruSQL examples need: varchar, integer,
/// timestamp plus the numeric / boolean / interval types any realistic
/// analytics query requires. All temporal values are stored as microseconds
/// (`i64`), matching the convention in [`crate::time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean (`true` / `false`).
    Bool,
    /// 64-bit signed integer. SQL `integer` / `bigint`.
    Int,
    /// 64-bit IEEE float. SQL `double precision` / `float`.
    Float,
    /// Variable-length UTF-8 string. SQL `varchar` / `text`.
    Text,
    /// Microseconds since the Unix epoch. SQL `timestamp`.
    Timestamp,
    /// Signed duration in microseconds. SQL `interval`.
    Interval,
}

impl DataType {
    /// True if the type participates in arithmetic (`+`, `-`, `*`, `/`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// True if the type is temporal (timestamp or interval).
    pub fn is_temporal(self) -> bool {
        matches!(self, DataType::Timestamp | DataType::Interval)
    }

    /// The common type two operands coerce to for comparison / arithmetic,
    /// or `None` if they are incompatible.
    ///
    /// Rules: identical types unify; `Int` widens to `Float`; everything else
    /// requires an explicit cast. Timestamp/interval arithmetic is handled
    /// separately by the expression type-checker because it is asymmetric
    /// (`timestamp - interval = timestamp` but `timestamp - timestamp =
    /// interval`).
    pub fn common_type(self, other: DataType) -> Option<DataType> {
        if self == other {
            return Some(self);
        }
        match (self, other) {
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Some(DataType::Float)
            }
            _ => None,
        }
    }

    /// Whether every value of this type casts to `to`: true where
    /// [`crate::Value::cast`] cannot fail. `Int` casts to every type, every
    /// type to `Text`, and `Bool`, `Timestamp` and `Interval` to `Int`.
    /// `Float` → `Int` can overflow and `Text` can fail to parse.
    pub fn always_casts_to(self, to: DataType) -> bool {
        use DataType::*;
        self == to
            || matches!(
                (self, to),
                (Int, _) | (_, Text) | (Bool | Timestamp | Interval, Int)
            )
    }

    /// Parse a SQL type name (case-insensitive), ignoring any length
    /// parameter such as `varchar(1024)` (handled by the parser).
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Some(DataType::Bool),
            "int" | "integer" | "bigint" | "smallint" | "int4" | "int8" => Some(DataType::Int),
            "float" | "double" | "real" | "float8" | "float4" | "numeric" | "decimal" => {
                Some(DataType::Float)
            }
            "text" | "varchar" | "char" | "string" => Some(DataType::Text),
            "timestamp" | "timestamptz" | "datetime" => Some(DataType::Timestamp),
            "interval" => Some(DataType::Interval),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "boolean",
            DataType::Int => "integer",
            DataType::Float => "float",
            DataType::Text => "varchar",
            DataType::Timestamp => "timestamp",
            DataType::Interval => "interval",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_name_round_trips() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Timestamp,
            DataType::Interval,
        ] {
            assert_eq!(DataType::from_sql_name(&ty.to_string()), Some(ty));
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(DataType::from_sql_name("VARCHAR"), Some(DataType::Text));
        assert_eq!(DataType::from_sql_name("bigint"), Some(DataType::Int));
        assert_eq!(DataType::from_sql_name("double"), Some(DataType::Float));
        assert_eq!(DataType::from_sql_name("no_such_type"), None);
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            DataType::Int.common_type(DataType::Float),
            Some(DataType::Float)
        );
        assert_eq!(
            DataType::Float.common_type(DataType::Int),
            Some(DataType::Float)
        );
        assert_eq!(
            DataType::Int.common_type(DataType::Int),
            Some(DataType::Int)
        );
        assert_eq!(DataType::Text.common_type(DataType::Int), None);
        assert_eq!(DataType::Timestamp.common_type(DataType::Interval), None);
    }

    #[test]
    fn predicates() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(DataType::Timestamp.is_temporal());
        assert!(DataType::Interval.is_temporal());
        assert!(!DataType::Bool.is_temporal());
    }
}
