//! Observability layer for the streamrel engine.
//!
//! A continuous query is *always on* (paper §2, §4): there is no batch job
//! whose completion tells you the system is healthy, so the engine itself
//! must report whether windows close on time, queues back up, and recovery
//! replayed correctly. This crate provides that substrate:
//!
//! - a lock-cheap [`Registry`] of named instruments ([`Counter`], [`Gauge`],
//!   [`Histogram`]) built on atomics — hot paths touch no locks and take at
//!   most one timestamp per event;
//! - a ring-buffered [`TraceRing`] of structured [`TraceEvent`]s recording
//!   the CQ runtime's close/advance/recovery decisions, dumpable on demand;
//! - relation builders so both surfaces are self-hosted in TruSQL: the
//!   virtual relations `streamrel_metrics` and `streamrel_trace` are
//!   ordinary `SELECT` targets (the paper's "everything is a table" stance).

#![deny(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, IvmMetrics, Registry};
pub use trace::{TraceEvent, TraceRing};

use std::sync::Arc;

use streamrel_types::{Relation, Schema};

/// Name of the virtual relation exposing the metrics registry.
pub const METRICS_RELATION: &str = "streamrel_metrics";
/// Name of the virtual relation exposing the trace ring.
pub const TRACE_RELATION: &str = "streamrel_trace";

/// Prefix reserved for engine-provided virtual relations; user DDL may not
/// create objects under it.
pub const RESERVED_PREFIX: &str = "streamrel_";

/// True if `name` is one of the engine's virtual relations.
pub fn is_virtual_relation(name: &str) -> bool {
    name.eq_ignore_ascii_case(METRICS_RELATION) || name.eq_ignore_ascii_case(TRACE_RELATION)
}

/// Schema of a virtual relation by name, if `name` is one.
pub fn virtual_schema(name: &str) -> Option<Schema> {
    if name.eq_ignore_ascii_case(METRICS_RELATION) {
        Some(metrics::metrics_schema())
    } else if name.eq_ignore_ascii_case(TRACE_RELATION) {
        Some(trace::trace_schema())
    } else {
        None
    }
}

/// Materialize a virtual relation by name against a registry, if `name`
/// is one. This is the single scan path shared by embedded `SELECT`s, CQ
/// window plans and `Client::stats()` over the wire, which is what keeps
/// the schema byte-identical across all three surfaces.
pub fn virtual_relation(name: &str, registry: &Arc<Registry>) -> Option<Relation> {
    if name.eq_ignore_ascii_case(METRICS_RELATION) {
        Some(registry.to_relation())
    } else if name.eq_ignore_ascii_case(TRACE_RELATION) {
        Some(registry.trace().to_relation())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_names_are_case_insensitive() {
        assert!(is_virtual_relation("STREAMREL_METRICS"));
        assert!(is_virtual_relation("streamrel_trace"));
        assert!(!is_virtual_relation("streamrel_other"));
    }

    #[test]
    fn virtual_relation_matches_virtual_schema() {
        let reg = Arc::new(Registry::new(16));
        reg.counter("a").inc();
        for name in [METRICS_RELATION, TRACE_RELATION] {
            let rel = virtual_relation(name, &reg).unwrap();
            assert_eq!(**rel.schema(), virtual_schema(name).unwrap());
        }
        assert!(virtual_relation("nope", &reg).is_none());
    }
}
