//! The traced run: the workload itself with spans on, what only its live
//! deployment can still tell afterwards (recovery, archive replay), and
//! the standalone layer replay.
//!
//! Metrics that describe one deployment (registration cost per wire
//! member, bridge throughput, recovery time, in-process call times) come
//! from this run's own spans and counters and are 0 on a workload whose
//! deployment makes no such call; the replayed unit costs are measured on
//! every workload.

use std::time::Instant;

use streamrel_core::DbOptions;

use crate::deploy::{Deployment, Kind};
use crate::gen::{Gen, SEC, T0};
use crate::layers;
use crate::procs::Env;
use crate::report::Traced;
use crate::run::{run, Outcome, RunConfig};
use crate::trace::{phase, Tracer};

/// `storage.recover_ms` on `durable_active`, `net.replay_windows_per_s`
/// on `bridged_rollup`: what only the run's live deployment can tell.
fn after_run(o: &mut Outcome, dep: Deployment, seed: u64) -> Result<(f64, f64), String> {
    match dep.kind {
        Kind::BridgedRollup => Ok((0.0, dep.replay_rate()?)),
        Kind::DurableActive => {
            let gen = Gen::new(seed, dep.kind.disorder());
            let next_close = T0 + o.sent_ticks as i64 * SEC;
            let (ms, position_ok) = dep.recover(gen.batch(o.sent_ticks), next_close)?;
            o.attempted += 1;
            if !position_ok {
                o.failed += 1;
                o.notes
                    .push("recovered CQ did not resume at the next close".into());
            }
            Ok((ms, 0.0))
        }
        _ => Ok((0.0, 0.0)),
    }
}

/// Closed-loop tick rate of the 16-CQ embedded job under `opts`, alone on
/// the calling thread (80 ticks stay far below the 1024-window queues,
/// so nobody needs to read them).
fn embedded_tick_rate(opts: DbOptions, gen: &Gen) -> Result<f64, String> {
    let dep = Deployment::setup_embedded_with(opts, &mut Tracer::new(false))?;
    for b in 0..20 {
        dep.ingest(gen.batch(b))?;
    }
    let t = Instant::now();
    for b in 20..80 {
        dep.ingest(gen.batch(b))?;
    }
    Ok(60.0 / t.elapsed().as_secs_f64())
}

/// Returns what the run gathered and the spans of the layer replay (the
/// run's own spans stay in its outcome).
pub fn traced_run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<(Traced, Tracer), String> {
    let cfg = RunConfig {
        kind,
        seed,
        seconds,
        traced: true,
    };
    let (mut outcome, dep) = run(&cfg, env)?;
    let shared_members = dep.shared_members;
    let (recover_ms, replay_windows_per_s) = after_run(&mut outcome, dep, seed)?;

    // The run may have confined this process to make room for its serving
    // child; what follows is in-process work.
    env.place_self(false);
    let serial_ratio = if kind == Kind::EmbeddedSliding {
        let gen = Gen::new(seed, kind.disorder());
        let default_rate = embedded_tick_rate(DbOptions::default(), &gen)?;
        let serial_rate = embedded_tick_rate(
            DbOptions::default().with_shards(1).with_pool_workers(0),
            &gen,
        )?;
        serial_rate / default_rate
    } else {
        0.0
    };

    let mut layer_spans = Tracer::new(true);
    layer_spans.set_parent(phase::LAYERS);
    let costs = layers::unit_costs(seed, env, &mut layer_spans)?;

    let traced = Traced {
        kind,
        run: outcome,
        shared_members,
        recover_ms,
        replay_windows_per_s,
        serial_ratio,
        costs,
    };
    Ok((traced, layer_spans))
}
