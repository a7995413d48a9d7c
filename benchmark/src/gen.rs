//! Seeded clickstream generator.
//!
//! Every tuple is a pure function of `(seed, tuple index)`, so the
//! verifier regenerates exactly the input a run consumed without keeping
//! it, and a run may stop after any batch. Event time is synthetic: 250
//! tuples span one event-second and one batch is 250 tuples (one *tick*),
//! so every batch moves the watermark past a 1-second boundary.
//!
//! The generator is the benchmark's own (no engine code): a splitmix64
//! counter hash and a CDF-table Zipf sampler.

use streamrel_types::{Row, Value};

/// Tuples per batch, and per event-second.
pub const BATCH: u64 = 250;
/// Microseconds per event-second.
pub const SEC: i64 = 1_000_000;
/// Event-time distance between consecutive in-order tuples.
pub const STEP: i64 = SEC / BATCH as i64;
/// Event time of tuple 0: a whole hour, so every window grid (1–5 s
/// advances) is aligned with tick boundaries.
pub const T0: i64 = 444_444 * 3600 * SEC;
/// Out-of-order slack the `embedded_sliding` deployment configures.
pub const SLACK: i64 = SEC;

pub const URLS: usize = 1000;
pub const IPS: usize = 4096;
const STATUSES: [(u16, u64); 5] = [(200, 900), (304, 50), (404, 30), (500, 10), (503, 10)];

/// One generated click, in the compact form the verifier keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuple {
    pub ts: i64,
    pub bytes: u32,
    pub url: u16,
    pub ip: u16,
    pub status: u16,
    /// Latency in eighths of a millisecond: every float the engine sees
    /// is a multiple of 0.125 below 512, so float sums are exact and the
    /// reference need not reproduce the engine's summation order.
    pub lat8: u16,
}

impl Tuple {
    pub fn latency(&self) -> f64 {
        f64::from(self.lat8) / 8.0
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How event time deviates from arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disorder {
    /// Strictly ordered (deployments running `DbOptions::default()`,
    /// whose streams reject out-of-order tuples).
    None,
    /// 3 % of tuples arrive up to 0.9 s behind event time (inside the
    /// 1 s slack) and 0.5 % arrive 1.5–3 s behind (beyond it: the engine
    /// must drop exactly these).
    Slack,
}

/// The seeded input of one run.
pub struct Gen {
    seed: u64,
    disorder: Disorder,
    zipf_cdf: Vec<f64>,
    urls: Vec<Value>,
    ips: Vec<Value>,
}

/// `/page/0000` … — zero-padded so string order equals id order.
pub fn url_name(id: usize) -> String {
    format!("/page/{id:04}")
}

pub fn ip_name(id: usize) -> String {
    format!("10.{}.{}.{}", id >> 8, (id >> 4) & 15, id & 15)
}

impl Gen {
    pub fn new(seed: u64, disorder: Disorder) -> Gen {
        let mut cdf = Vec::with_capacity(URLS);
        let mut acc = 0.0;
        for k in 1..=URLS {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Gen {
            seed: splitmix(seed ^ 0x5EED_5EED),
            disorder,
            zipf_cdf: cdf,
            urls: (0..URLS).map(|i| Value::text(url_name(i))).collect(),
            ips: (0..IPS).map(|i| Value::text(ip_name(i))).collect(),
        }
    }

    /// Tuple number `i` of the run.
    pub fn tuple(&self, i: u64) -> Tuple {
        let h0 = splitmix(self.seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let h1 = splitmix(h0);
        let h2 = splitmix(h1);
        let u = (h0 >> 11) as f64 / (1u64 << 53) as f64;
        let url = self.zipf_cdf.partition_point(|&c| c < u).min(URLS - 1) as u16;
        let mut pick = h1 % 1000;
        let mut status = 200;
        for (s, w) in STATUSES {
            if pick < w {
                status = s;
                break;
            }
            pick -= w;
        }
        let base = T0 + i as i64 * STEP;
        let mut ts = base;
        if self.disorder == Disorder::Slack && i >= 3 * BATCH {
            let roll = (h2 >> 32) % 1000;
            let jitter = (h2 & 0xFFFF) as i64;
            // Delays are odd microsecond counts, so a delayed tuple never
            // ties with an in-order one (multiples of STEP).
            if roll < 5 {
                ts = base - (3 * SEC / 2 + jitter * 22) - 1;
            } else if roll < 35 {
                ts = base - (jitter * 12 + 1);
            }
        }
        Tuple {
            ts,
            bytes: 200 + ((h1 >> 16) % 65_536) as u32,
            url,
            ip: ((h1 >> 40) % IPS as u64) as u16,
            status,
            lat8: ((h2 >> 16) % 4096) as u16,
        }
    }

    /// The engine row of a tuple: `(url, client_ip, status, bytes,
    /// latency, atime)`. Text cells are shared `Arc`s, so building a row
    /// costs two reference-count bumps and no allocation but the `Vec`.
    pub fn row(&self, t: &Tuple) -> Row {
        vec![
            self.urls[t.url as usize].clone(),
            self.ips[t.ip as usize].clone(),
            Value::Int(i64::from(t.status)),
            Value::Int(i64::from(t.bytes)),
            Value::Float(t.latency()),
            Value::Timestamp(t.ts),
        ]
    }

    /// Batch number `b`: tuples `[b·250, (b+1)·250)`.
    pub fn batch(&self, b: u64) -> Vec<Row> {
        (b * BATCH..(b + 1) * BATCH)
            .map(|i| self.row(&self.tuple(i)))
            .collect()
    }

    pub fn url_value(&self, id: u16) -> Value {
        self.urls[id as usize].clone()
    }

    pub fn ip_value(&self, id: u16) -> Value {
        self.ips[id as usize].clone()
    }
}

/// The stream every deployment declares.
pub const CLICKS_COLUMNS: &str = "url varchar(64), client_ip varchar(32), status integer, \
     bytes integer, latency float, atime timestamp CQTIME USER";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_seeds_differ() {
        let a = Gen::new(7, Disorder::Slack);
        let b = Gen::new(7, Disorder::Slack);
        let c = Gen::new(8, Disorder::Slack);
        let xs: Vec<Tuple> = (0..5000).map(|i| a.tuple(i)).collect();
        assert!((0..5000).all(|i| b.tuple(i) == xs[i as usize]));
        assert!((0..5000).any(|i| c.tuple(i) != xs[i as usize]));
    }

    #[test]
    fn disorder_shares_and_margins() {
        let g = Gen::new(1, Disorder::Slack);
        let n = 200_000u64;
        let (mut within, mut beyond) = (0u64, 0u64);
        for i in 0..n {
            let t = g.tuple(i);
            let delay = T0 + i as i64 * STEP - t.ts;
            assert!(delay >= 0);
            if delay == 0 {
                continue;
            }
            assert!(t.ts % STEP != 0, "delayed tuples never tie");
            if delay <= 9 * SEC / 10 {
                within += 1;
            } else {
                assert!(delay > 3 * SEC / 2 && delay < 3 * SEC + 2);
                beyond += 1;
            }
        }
        let (w, b) = (within as f64 / n as f64, beyond as f64 / n as f64);
        assert!((0.025..0.035).contains(&w), "within-slack share {w}");
        assert!((0.003..0.007).contains(&b), "beyond-slack share {b}");
        let ordered = Gen::new(1, Disorder::None);
        assert!((0..5000).all(|i| ordered.tuple(i).ts == T0 + i as i64 * STEP));
    }
}
