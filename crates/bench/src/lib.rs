//! The paper's experiments and the harnesses around the engine.
//!
//! Two runners share this crate: `experiments` runs the suites of
//! [`experiments::SUITES`] — F1 and E1–E8, one per claim of the paper,
//! against the [`baseline`]s the paper argues against, and the
//! [`subsystems`]' shape claims (DESIGN.md §4) — and the seeded `torture`
//! runs the suites of [`torture::SUITES`]. Both write their claims through
//! [`experiments::record`].

#![deny(unsafe_code)]

pub mod baseline;
pub mod experiments;
pub mod federation;
pub mod race;
pub mod subsystems;
pub mod torture;

use std::time::{Duration, Instant};

/// Scale factor from the `SCALE` env var (default 1). Experiment sizes
/// multiply by this, so `SCALE=10 cargo run --release --bin experiments`
/// approaches warehouse-ish volumes.
pub fn scale() -> usize {
    std::env::var("SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Simple aligned table printer for experiment output.
pub struct ResultTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// New table with headers.
    pub fn new(headers: &[&str]) -> ResultTable {
        ResultTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render and print.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&self.headers);
        line(&sep);
        for r in &self.rows {
            line(r);
        }
    }
}

/// Geometric factor between consecutive measurements (used to report
/// scaling behaviour).
pub fn growth_factor(values: &[f64]) -> f64 {
    if values.len() < 2 || values[0] <= 0.0 {
        return f64::NAN;
    }
    let ratio = values.last().unwrap() / values[0];
    ratio.powf(1.0 / (values.len() - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_dur(Duration::from_millis(20)), "20.00ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn growth_factor_of_doubling_is_two() {
        let f = growth_factor(&[1.0, 2.0, 4.0, 8.0]);
        assert!((f - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = ResultTable::new(&["a", "b"]);
        t.row(&["1".into(), "long cell".into()]);
        t.print();
    }
}
