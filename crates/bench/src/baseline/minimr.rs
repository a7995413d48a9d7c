//! A miniature map/shuffle/reduce engine — the paper's Hadoop-shaped
//! comparator (§1.3: "even new disruptive approaches like Hadoop and
//! Map/Reduce are also based on a batch paradigm").
//!
//! Faithful to the batch shape: the whole input is partitioned, mapped in
//! parallel (scoped threads), the intermediate key/value pairs are
//! **materialized** (optionally spilled to real files, as a cluster would
//! shuffle over disk/network), then reduced in parallel by key partition.
//! Every run starts from scratch over all stored data — the exact contrast
//! to jellybean per-tuple processing.

use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::path::PathBuf;

use streamrel_types::{Error, Result, Row};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MrConfig {
    /// Worker threads for map and reduce phases.
    pub workers: usize,
    /// Reduce partitions (hash of key).
    pub partitions: usize,
    /// Spill shuffled intermediates through real files in this directory
    /// (None = in-memory shuffle).
    pub spill_dir: Option<PathBuf>,
}

impl Default for MrConfig {
    fn default() -> MrConfig {
        MrConfig {
            workers: 4,
            partitions: 8,
            spill_dir: None,
        }
    }
}

/// Per-run counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrRunStats {
    /// Input rows mapped.
    pub mapped: u64,
    /// Intermediate key/value pairs shuffled.
    pub shuffled: u64,
    /// Bytes written to spill files (0 when in-memory).
    pub spilled_bytes: u64,
    /// Output groups reduced.
    pub reduced: u64,
}

/// The mini map/reduce engine. Jobs are `(map, reduce)` function pairs
/// over [`Row`]s with string-serializable keys and `i64` values —
/// deliberately the word-count shape the paper's targets popularized.
pub struct MiniMr {
    config: MrConfig,
    last_stats: MrRunStats,
}

impl MiniMr {
    /// New engine.
    pub fn new(config: MrConfig) -> MiniMr {
        MiniMr {
            config,
            last_stats: MrRunStats::default(),
        }
    }

    /// Counters from the most recent run.
    pub fn last_stats(&self) -> MrRunStats {
        self.last_stats
    }

    /// Run a grouped-sum job: `map` emits zero or more `(key, value)`
    /// pairs per row; the framework sums values per key. Returns
    /// `(key, sum, count)` rows sorted by key.
    pub fn run_grouped_sum(
        &mut self,
        input: &[Row],
        map: impl Fn(&Row) -> Vec<(String, i64)> + Sync,
    ) -> Result<Vec<(String, i64, i64)>> {
        let workers = self.config.workers.max(1);
        let partitions = self.config.partitions.max(1);
        let chunk = input.len().div_ceil(workers).max(1);

        // ---- map phase (parallel over input chunks) ----
        // Each worker produces one Vec per reduce partition.
        let map = &map;
        let map_outputs: Vec<Vec<Vec<(String, i64)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = input
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let mut parts: Vec<Vec<(String, i64)>> =
                            (0..partitions).map(|_| Vec::new()).collect();
                        for row in part {
                            for (k, v) in map(row) {
                                let p = key_partition(&k, partitions);
                                parts[p].push((k, v));
                            }
                        }
                        parts
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<std::thread::Result<_>>()
        })
        .map_err(|_| Error::analysis("map phase panicked"))?;

        let mapped = input.len() as u64;
        let shuffled: u64 = map_outputs
            .iter()
            .flat_map(|w| w.iter())
            .map(|p| p.len() as u64)
            .sum();

        // ---- shuffle phase: materialize per-partition runs ----
        let mut spilled_bytes = 0u64;
        let partition_data: Vec<Vec<(String, i64)>> = if let Some(dir) = &self.config.spill_dir {
            std::fs::create_dir_all(dir)?;
            // Write every mapper's output for partition p into one file,
            // then read it back — the disk round-trip a real shuffle pays.
            let mut result = Vec::with_capacity(partitions);
            for p in 0..partitions {
                let path = dir.join(format!("shuffle-{p}.run"));
                {
                    let mut w = BufWriter::new(std::fs::File::create(&path)?);
                    for worker in &map_outputs {
                        for (k, v) in &worker[p] {
                            let line = format!("{}\t{v}\n", k.replace(['\t', '\n'], " "));
                            w.write_all(line.as_bytes())?;
                            spilled_bytes += line.len() as u64;
                        }
                    }
                    w.flush()?;
                }
                let mut text = String::new();
                std::fs::File::open(&path)?.read_to_string(&mut text)?;
                let mut pairs = Vec::new();
                for line in text.lines() {
                    let (k, v) = line
                        .rsplit_once('\t')
                        .ok_or_else(|| Error::storage("corrupt shuffle line"))?;
                    pairs.push((
                        k.to_string(),
                        v.parse::<i64>()
                            .map_err(|_| Error::storage("corrupt shuffle value"))?,
                    ));
                }
                std::fs::remove_file(&path).ok();
                result.push(pairs);
            }
            result
        } else {
            let mut result: Vec<Vec<(String, i64)>> = (0..partitions).map(|_| Vec::new()).collect();
            for worker in map_outputs {
                for (p, pairs) in worker.into_iter().enumerate() {
                    result[p].extend(pairs);
                }
            }
            result
        };

        // ---- reduce phase (parallel over partitions) ----
        let reduced_parts: Vec<Vec<(String, i64, i64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partition_data
                .iter()
                .map(|pairs| {
                    scope.spawn(move || {
                        let mut agg: HashMap<&str, (i64, i64)> = HashMap::new();
                        for (k, v) in pairs {
                            let e = agg.entry(k.as_str()).or_insert((0, 0));
                            e.0 += v;
                            e.1 += 1;
                        }
                        let mut out: Vec<(String, i64, i64)> = agg
                            .into_iter()
                            .map(|(k, (s, c))| (k.to_string(), s, c))
                            .collect();
                        out.sort_by(|a, b| a.0.cmp(&b.0));
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<std::thread::Result<_>>()
        })
        .map_err(|_| Error::analysis("reduce phase panicked"))?;

        let mut output: Vec<(String, i64, i64)> = reduced_parts.into_iter().flatten().collect();
        output.sort_by(|a, b| a.0.cmp(&b.0));
        self.last_stats = MrRunStats {
            mapped,
            shuffled,
            spilled_bytes,
            reduced: output.len() as u64,
        };
        Ok(output)
    }

    /// The netsec report (E5) as a map function: emit `(src_ip, bytes)`
    /// for denied high-severity events.
    pub fn netsec_deny_map(row: &Row) -> Vec<(String, i64)> {
        let action = row
            .get(2)
            .and_then(|v| v.as_text().ok().map(str::to_string));
        let severity = row.get(3).and_then(|v| v.as_int().ok());
        if action.as_deref() == Some("deny") && severity.unwrap_or(0) >= 3 {
            let src = row[0].as_text().unwrap_or("?").to_string();
            let bytes = row.get(4).and_then(|v| v.as_int().ok()).unwrap_or(0);
            vec![(src, bytes)]
        } else {
            vec![]
        }
    }
}

fn key_partition(key: &str, partitions: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % partitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{row, Value};

    fn rows() -> Vec<Row> {
        vec![
            row!["a", 1i64],
            row!["b", 2i64],
            row!["a", 3i64],
            row!["c", 4i64],
            row!["a", 5i64],
        ]
    }

    fn sum_map(r: &Row) -> Vec<(String, i64)> {
        vec![(r[0].as_text().unwrap().to_string(), r[1].as_int().unwrap())]
    }

    #[test]
    fn grouped_sum_in_memory() {
        let mut mr = MiniMr::new(MrConfig::default());
        let out = mr.run_grouped_sum(&rows(), sum_map).unwrap();
        assert_eq!(
            out,
            vec![("a".into(), 9, 3), ("b".into(), 2, 1), ("c".into(), 4, 1)]
        );
        let st = mr.last_stats();
        assert_eq!(st.mapped, 5);
        assert_eq!(st.shuffled, 5);
        assert_eq!(st.reduced, 3);
        assert_eq!(st.spilled_bytes, 0);
    }

    #[test]
    fn spill_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("streamrel-mr-{}", std::process::id()));
        let mut mem = MiniMr::new(MrConfig::default());
        let mut disk = MiniMr::new(MrConfig {
            spill_dir: Some(dir.clone()),
            ..MrConfig::default()
        });
        let a = mem.run_grouped_sum(&rows(), sum_map).unwrap();
        let b = disk.run_grouped_sum(&rows(), sum_map).unwrap();
        assert_eq!(a, b);
        assert!(disk.last_stats().spilled_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matches_single_threaded_reference() {
        let input: Vec<Row> = (0..1000i64)
            .map(|i| row![format!("k{}", i % 17), i])
            .collect();
        let mut mr = MiniMr::new(MrConfig {
            workers: 7,
            partitions: 5,
            spill_dir: None,
        });
        let out = mr.run_grouped_sum(&input, sum_map).unwrap();
        // Reference.
        let mut reference: HashMap<String, (i64, i64)> = HashMap::new();
        for r in &input {
            let e = reference
                .entry(r[0].as_text().unwrap().to_string())
                .or_insert((0, 0));
            e.0 += r[1].as_int().unwrap();
            e.1 += 1;
        }
        assert_eq!(out.len(), reference.len());
        for (k, s, c) in out {
            assert_eq!(reference[&k], (s, c), "key {k}");
        }
    }

    #[test]
    fn empty_map_output_allowed() {
        let mut mr = MiniMr::new(MrConfig::default());
        let out = mr.run_grouped_sum(&rows(), |_| Vec::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(mr.last_stats().shuffled, 0);
    }

    #[test]
    fn netsec_map_filters() {
        let deny = row![
            "10.0.0.1",
            80i64,
            "deny",
            4i64,
            1000i64,
            Value::Timestamp(1)
        ];
        let allow = row![
            "10.0.0.2",
            80i64,
            "allow",
            1i64,
            1000i64,
            Value::Timestamp(2)
        ];
        assert_eq!(
            MiniMr::netsec_deny_map(&deny),
            vec![("10.0.0.1".to_string(), 1000)]
        );
        assert!(MiniMr::netsec_deny_map(&allow).is_empty());
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;
    use streamrel_core::{Db, DbOptions, ExecResult};
    use streamrel_types::{row, Value};

    /// §5's closing point: "the possibility for closer integration between
    /// Continuous Analytics systems and more batch-oriented approaches...
    /// the key is how faithfully each conforms to the SQL interface."
    /// Demonstrated: a batch MR job's output loads straight into the
    /// stream-relational database and joins with live continuous results.
    #[test]
    fn mr_output_feeds_the_database() {
        // Batch side: historical grouped sums via map/reduce.
        let history: Vec<streamrel_types::Row> =
            vec![row!["a", 10i64], row!["b", 20i64], row!["a", 30i64]];
        let mut mr = MiniMr::new(MrConfig::default());
        let batch = mr
            .run_grouped_sum(&history, |r| {
                vec![(r[0].as_text().unwrap().to_string(), r[1].as_int().unwrap())]
            })
            .unwrap();

        // Load the MR output into the database like any other table.
        let db = Db::in_memory(DbOptions::default());
        db.execute("CREATE TABLE batch_sums (k varchar(8), total bigint, n bigint)")
            .unwrap();
        let id = db.engine().table_id("batch_sums").unwrap();
        db.engine()
            .with_txn(|x| {
                for (k, s, c) in &batch {
                    db.engine().insert(
                        x,
                        id,
                        vec![Value::text(k), Value::Int(*s), Value::Int(*c)],
                    )?;
                }
                Ok(())
            })
            .unwrap();

        // Live side: a CQ joining current window sums with batch history.
        db.execute("CREATE STREAM s (k varchar(8), v integer, ts timestamp CQTIME USER)")
            .unwrap();
        let sub = match db
            .execute(
                "SELECT c.k, c.cur, h.total FROM \
                 (SELECT k, sum(v) cur FROM s <TUMBLING '1 minute'> GROUP BY k) c \
                 JOIN batch_sums h ON c.k = h.k ORDER BY c.k",
            )
            .unwrap()
        {
            ExecResult::Subscribed(sub) => sub,
            other => panic!("{other:?}"),
        };
        db.ingest("s", row!["a", 5i64, Value::Timestamp(1)])
            .unwrap();
        db.ingest("s", row!["b", 6i64, Value::Timestamp(2)])
            .unwrap();
        db.heartbeat("s", 60_000_000).unwrap();
        let outs = db.poll(sub).unwrap();
        assert_eq!(outs[0].relation.rows()[0], row!["a", 5i64, 40i64]);
        assert_eq!(outs[0].relation.rows()[1], row!["b", 6i64, 20i64]);
    }
}
