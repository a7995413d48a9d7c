//! The torture runner's `federation` suite: `kill -9` the serving node
//! mid-ingest, restart it, and prove the downstream node converges
//! byte-identically to an uncrashed single-process reference.
//!
//! The suite crosses a real process boundary: the serving node is a
//! **child process** (the runner's own binary re-executed with `--node`,
//! which lands in [`run_node`]) running a durable `Db` behind a TCP
//! server; the runner drives a deterministic seeded feed over the wire,
//! SIGKILLs the child at seed-chosen windows, restarts it on the same data
//! dir and port, and re-drives exactly the rows the recovery contract says
//! are the producer's responsibility: everything at or above the archive's
//! high-water mark (rows below it are in durably archived windows; rows
//! above were open-window runtime state, lost with the process). The
//! consumer — a bridge in the runner — reconnects with backoff and resumes
//! via `SubscribeFrom{last applied close}`, replaying any windows that
//! closed while the link was down from the child's archive.
//!
//! Convergence claim: the consumer's merged windows are byte-identical
//! to the same pipeline run uncrashed in one process — closes, row
//! order, and encodings, not just totals. A seed whose scheduled kills
//! did not all land, or whose link never came back, proved nothing and
//! fails too.

use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamrel_core::{Db, DbOptions};
use streamrel_faults::chaos::splitmix64;
use streamrel_net::{wire, Bridge, BridgeOptions, Client, Server};
use streamrel_types::time::MINUTES;
use streamrel_types::{Row, Value};

use crate::torture::{Artifact, Failure, Outcome, Sizes};

/// The producer's pipeline: raw hits, their per-minute partials by url,
/// and the partials' APPEND archive that `SubscribeFrom` replays.
pub const PRODUCER_DDL: &[&str] = &[
    "CREATE STREAM hits (url varchar(100), htime timestamp CQTIME USER)",
    "CREATE TABLE hit_archive (url varchar(100), scnt integer, stime timestamp)",
    "CREATE STREAM hit_partials AS SELECT url, count(*) scnt, cq_close(*) stime \
     FROM hits <TUMBLING '1 minute'> GROUP BY url ORDER BY url",
    "CREATE CHANNEL hit_chan FROM hit_partials INTO hit_archive APPEND",
];
/// The consumer's stream the partials are bridged into.
pub const CONSUMER_STREAM: &str =
    "CREATE STREAM partials (url varchar(100), scnt integer, stime timestamp CQTIME USER)";
const MERGED_CQ: &str = "SELECT url, sum(scnt) total, cq_close(*) w \
     FROM partials <TUMBLING '1 minute'> GROUP BY url ORDER BY url";

/// Rows the producer ingests per window.
const ROWS_PER_WINDOW: i64 = 40;

/// Child mode: a serving node. Opens (or re-opens after a kill) the
/// durable database at `dir`, applies the pipeline DDL if this is a
/// fresh dir, binds `port` (0 = ephemeral; restarts retry the bind until
/// the OS releases the old listener) and prints `PORT=<n>`.
pub fn run_node(dir: &Path, port: u16) -> ! {
    let db = match Db::open(dir, DbOptions::default()) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("node: cannot open {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    for stmt in PRODUCER_DDL {
        // Fresh dir: creates the pipeline. Restart: the catalog was
        // recovered from the WAL and each statement fails "exists" —
        // which is exactly the durability being tortured, so ignore.
        let _ = db.execute(stmt);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let server = loop {
        match Server::serve(db.clone(), ("127.0.0.1", port)) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("node: cannot bind 127.0.0.1:{port}: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    println!("PORT={}", server.local_addr().port());
    loop {
        std::thread::park();
    }
}

/// A serving child process; dropping it is the `kill -9` (and the reap).
struct Node(Child);

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait(); // lint: wait-ok(process reap, not a condvar)
    }
}

/// Spawn a serving node and wait for its `PORT=` line.
fn spawn_node(dir: &Path, port: u16) -> Result<(Node, u16), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut node = Node(
        Command::new(exe)
            .arg("--node")
            .arg(dir)
            .arg(port.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn node: {e}"))?,
    );
    let stdout = node.0.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("read node stdout: {e}"))?;
        if let Some(p) = line.strip_prefix("PORT=") {
            let port: u16 = p.parse().map_err(|e| format!("bad PORT line: {e}"))?;
            // Keep draining stdout so the child can never block on a
            // full pipe (it prints nothing more, but stay safe).
            std::thread::spawn(move || for _ in lines {});
            return Ok((node, port));
        }
    }
    Err("node exited without printing PORT=".into())
}

/// Deterministic per-seed feed: `rows_of(seed, w)` is the same on every
/// run, so the runner can re-drive any suffix after a kill.
fn rows_of(seed: u64, w: i64) -> Vec<Row> {
    (0..ROWS_PER_WINDOW)
        .map(|i| {
            let url = splitmix64(seed ^ ((w as u64) << 32) ^ i as u64) % 7;
            vec![
                Value::text(format!("/p{url}")),
                Value::Timestamp(w * MINUTES + i * (MINUTES / ROWS_PER_WINDOW)),
            ]
        })
        .collect()
}

/// Seed-chosen kill points: `min(kills, windows - 1)` distinct windows in
/// `1..windows`, ascending — never the first, so there is always archived
/// state to recover against.
fn kill_windows(seed: u64, windows: i64, kills: u64) -> Vec<i64> {
    let span = (windows - 1).max(0) as u64;
    let mut picked = Vec::new();
    let mut attempt = 0u64;
    while (picked.len() as u64) < kills.min(span) {
        let w = 1 + (splitmix64(seed.wrapping_mul(0x100_0000) ^ attempt) % span) as i64;
        attempt += 1;
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    picked.sort_unstable();
    picked
}

fn canonical_outputs(outs: &[streamrel_cq::CqOutput]) -> Vec<(i64, Vec<u8>)> {
    outs.iter()
        .map(|o| (o.close, wire::encode_rows(&o.relation)))
        .collect()
}

/// The uncrashed reference: same pipeline, one process, no wire.
fn reference(seed: u64, windows: i64) -> Vec<(i64, Vec<u8>)> {
    let producer = Db::in_memory(DbOptions::default());
    for stmt in PRODUCER_DDL {
        producer.execute(stmt).unwrap();
    }
    let partials = producer.subscribe_stream("hit_partials").unwrap();
    let consumer = Db::in_memory(DbOptions::default());
    consumer.execute(CONSUMER_STREAM).unwrap();
    let merged = consumer.execute(MERGED_CQ).unwrap().subscription();
    for w in 0..windows {
        producer.ingest_batch("hits", rows_of(seed, w)).unwrap();
        producer.heartbeat("hits", (w + 1) * MINUTES).unwrap();
    }
    producer.heartbeat("hits", (windows + 1) * MINUTES).unwrap();
    for out in producer.poll(partials).unwrap() {
        if !out.relation.rows().is_empty() {
            consumer
                .ingest_batch("partials", out.relation.rows().to_vec())
                .unwrap();
        }
        consumer.heartbeat("partials", out.close).unwrap();
    }
    canonical_outputs(&consumer.poll(merged).unwrap())
}

/// The archive high-water mark on the serving node: max `stime` in the
/// Active Table, or `i64::MIN` on an empty archive. Computed client-side
/// from a plain scan so the probe exercises no more SQL surface than the
/// pipeline itself.
fn archive_high_water(client: &Client) -> Result<i64, String> {
    let rel = client
        .execute("SELECT stime FROM hit_archive")
        .map_err(|e| format!("archive scan: {e}"))?;
    Ok(rel
        .rows()
        .iter()
        .filter_map(|r| match r.first() {
            Some(Value::Timestamp(t)) => Some(*t),
            _ => None,
        })
        .max()
        .unwrap_or(i64::MIN))
}

/// Run the suite for one seed; the outcome's points are the kills that
/// landed. A failing seed keeps the node's data dir as its artifact.
pub fn run_seed(seed: u64, sizes: Sizes) -> Outcome {
    let dir = std::env::temp_dir().join(format!("streamrel-torture-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kill_at = kill_windows(seed, sizes.windows, sizes.kills);
    let (points, problems) =
        drive(seed, sizes.windows, &kill_at, &dir).unwrap_or_else(|e| (0, vec![e]));
    let mut outcome = Outcome {
        points,
        failures: Vec::new(),
    };
    if problems.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        outcome.failures.push(Failure {
            suite: "federation",
            seed,
            op: None,
            detail: format!("kills at windows {kill_at:?}: {}", problems.join("\n")),
            artifact: Some(Artifact::NodeDir(dir)),
        });
    }
    outcome
}

/// Feed `windows` windows through a serving node at `dir`, killing it at
/// the windows in `kill_at`: the kills that landed, and every way the run
/// fell short of the claim. `Err` is a run that could not go on.
fn drive(
    seed: u64,
    windows: i64,
    kill_at: &[i64],
    dir: &Path,
) -> Result<(u64, Vec<String>), String> {
    let expect = reference(seed, windows);
    let (mut node, port) = spawn_node(dir, 0)?;
    let addr = format!("127.0.0.1:{port}");

    // The downstream node: embedded consumer fed by a reconnecting bridge.
    let consumer = Arc::new(Db::in_memory(DbOptions::default()));
    let err = |e: streamrel_types::Error| e.to_string();
    consumer.execute(CONSUMER_STREAM).map_err(err)?;
    let merged = consumer.execute(MERGED_CQ).map_err(err)?.subscription();
    let bridge = Bridge::start(
        consumer.clone(),
        addr.clone(),
        "hit_partials",
        "partials",
        BridgeOptions {
            backoff_initial: Duration::from_millis(20),
            backoff_max: Duration::from_millis(200),
        },
    )
    .map_err(err)?;
    if !bridge.wait_until_up(Duration::from_secs(10)) {
        return Err("bridge never attached to fresh node".into());
    }

    let connect = || Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"));
    let mut client = connect()?;
    let mut kills = 0u64;
    for w in 0..windows {
        let rows = rows_of(seed, w);
        if kill_at.contains(&w) {
            // Mid-ingest: half the window is in the node's open-window
            // runtime state when SIGKILL lands — gone with the process.
            client
                .ingest_batch("hits", &rows[..rows.len() / 2])
                .map_err(|e| format!("pre-kill ingest: {e}"))?;
            drop(node);
            kills += 1;
            drop(client);

            // Restart on the same dir + port; the bridge's backoff loop
            // finds the new listener on its own.
            let (restarted, p2) = spawn_node(dir, port)?;
            node = restarted;
            if p2 != port {
                return Err(format!("node restarted on port {p2}, not {port}"));
            }
            client = connect()?;

            // No raw archive on the producer (DESIGN.md §16.3): all at or
            // above the archive high-water mark is the feeder's to re-drive —
            // window `w`'s rows included, so it is closed directly below.
            let watermark = archive_high_water(&client)?;
            for wi in 0..=w {
                let redrive: Vec<Row> = rows_of(seed, wi)
                    .into_iter()
                    .filter(|r| matches!(r[1], Value::Timestamp(t) if t >= watermark))
                    .collect();
                if !redrive.is_empty() {
                    client
                        .ingest_batch("hits", &redrive)
                        .map_err(|e| format!("re-drive: {e}"))?;
                }
            }
        } else {
            client
                .ingest_batch("hits", &rows)
                .map_err(|e| format!("ingest: {e}"))?;
        }
        client
            .heartbeat("hits", (w + 1) * MINUTES)
            .map_err(|e| format!("heartbeat: {e}"))?;
    }
    client
        .heartbeat("hits", (windows + 1) * MINUTES)
        .map_err(|e| format!("flush heartbeat: {e}"))?;

    // Convergence: the consumer's merged windows equal the uncrashed
    // reference, byte for byte.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::new();
    while got.len() < expect.len() && Instant::now() < deadline {
        got.extend(canonical_outputs(&consumer.poll(merged).map_err(err)?));
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut problems = Vec::new();
    if got != expect {
        let closes = |v: &[(i64, Vec<u8>)]| v.iter().map(|(c, _)| *c).collect::<Vec<_>>();
        problems.push(format!(
            "consumer did not converge: expected {} windows {:?}, got {} windows {:?}",
            expect.len(),
            closes(&expect),
            got.len(),
            closes(&got)
        ));
    }
    // A seed that never killed anything proves nothing.
    let scheduled = kill_at.len();
    if kills != scheduled as u64 {
        problems.push(format!("{kills} of {scheduled} scheduled kills landed"));
    }
    // Back-to-back kills can share one reconnect (the bridge may still
    // be backing off from the first when the second lands), but the
    // link must have come back at least once.
    if !kill_at.is_empty() && bridge.reconnects() == 0 {
        problems.push("the bridge never reconnected".into());
    }
    Ok((kills, problems))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_schedule_is_distinct_in_range_and_seeded() {
        for windows in 0..14i64 {
            for kills in 0..5u64 {
                for seed in [0, 1, 42, 43, u64::MAX] {
                    let at = kill_windows(seed, windows, kills);
                    assert_eq!(at, kill_windows(seed, windows, kills));
                    let want = kills.min((windows - 1).max(0) as u64);
                    assert_eq!(at.len() as u64, want, "{seed} {windows} {kills}");
                    assert!(at.windows(2).all(|p| p[0] < p[1]), "{at:?}");
                    assert!(at.iter().all(|w| (1..windows).contains(w)), "{at:?}");
                }
            }
        }
        assert!(kill_windows(0, 0, 3).is_empty());
        assert!(kill_windows(0, 1, 3).is_empty());
        assert_eq!(kill_windows(0, 2, 3), vec![1]);
        let schedules: std::collections::HashSet<Vec<i64>> =
            (0..64).map(|seed| kill_windows(seed, 12, 3)).collect();
        assert!(
            schedules.len() > 32,
            "{} distinct schedules",
            schedules.len()
        );
    }

    #[test]
    fn feed_is_seeded() {
        assert_eq!(rows_of(42, 3), rows_of(42, 3));
        assert_ne!(rows_of(42, 3), rows_of(43, 3));
        assert_eq!(rows_of(42, 3).len() as i64, ROWS_PER_WINDOW);
    }
}
