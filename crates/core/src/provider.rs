//! What the catalog declares about a stream, base or derived: the
//! analyzer resolves names against it (`db.rs`'s `SchemaProvider`), and
//! the stream's runtime coerces ingested rows to it.

use streamrel_sql::plan::SchemaRef;

/// A stream's declaration.
#[derive(Debug, Clone)]
pub struct StreamDecl {
    pub schema: SchemaRef,
    /// The CQTIME column: declared on a base stream, the `cq_close(*)`
    /// output column of the query behind a derived one.
    pub cqtime: Option<usize>,
}
