//! Client subscriptions (§3.1). A subscription is one record: its CQ, the
//! shard that CQ runs in, and its bounded queue. The queue exists before
//! the CQ and its `Arc` rides in the CQ's sink, so `pump` offers each
//! window straight into it under the shard lock it holds, from the first.
//!
//! The table lock and each queue's lock are leaves: nothing is acquired
//! while either is held, so they add no lock-graph edges and are not
//! declared below. `pump` takes a queue's lock under its shard's `state`.

// lock-order: catalog < state

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use streamrel_cq::CqOutput;
use streamrel_sql::analyzer::AnalyzedQuery;
use streamrel_types::{Error, Result};

use super::{Catalog, Db, DbStats, ExecResult};
use crate::shard::{Shard, Sink};
use crate::subscription::{ClientQueue, Subscription, SubscriptionId};

/// One client subscription.
pub(super) struct ClientSub {
    /// The shard its CQ runs in.
    shard: Arc<Shard>,
    cq: u64,
    /// The queue its CQ's sink offers into.
    queue: ClientQueue,
}

fn unknown(sub: SubscriptionId) -> Error {
    Error::stream(format!("unknown subscription {sub:?}"))
}

impl Db {
    /// Register a continuous plan for a client (the continuous half of a
    /// `SELECT`). The queue exists before the CQ does, so every window
    /// the CQ closes is delivered, shed or pending in it.
    pub(super) fn subscribe(
        &self,
        mut catalog: MutexGuard<'_, Catalog>,
        analyzed: &AnalyzedQuery,
    ) -> Result<ExecResult> {
        let id = SubscriptionId(catalog.next_sub);
        let queue = Subscription::bounded(self.options.sub_queue_capacity)
            .with_depth_gauge(self.metrics.sub_queue_depth.clone());
        let queue = Arc::new(Mutex::named("core.sub_queue", queue));
        let sink = Sink::Client(id, queue.clone());
        let (shard, cq, _) = self.register_cq(&mut catalog, analyzed, sink)?;
        catalog.next_sub += 1;
        drop(catalog);
        let sub = ClientSub { shard, cq, queue };
        self.subscriptions.lock().insert(id, sub);
        Ok(ExecResult::Subscribed(id))
    }

    /// Drain pending window results for a subscription.
    ///
    /// Results are queued as [`Arc<CqOutput>`]; this convenience form
    /// unwraps the reference (the queue held the only one). Consumers
    /// that broadcast a window should use [`Db::poll_shared`] and share
    /// the allocation.
    pub fn poll(&self, sub: SubscriptionId) -> Result<Vec<CqOutput>> {
        Ok(self
            .poll_shared(sub)?
            .into_iter()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
            .collect())
    }

    /// Drain pending window results without copying the underlying
    /// windows: each result is the reference-counted allocation the
    /// engine enqueued, ready to be shared across a fan-out.
    pub fn poll_shared(&self, sub: SubscriptionId) -> Result<Vec<Arc<CqOutput>>> {
        let queue = self.subscriptions.lock().get(&sub).map(|s| s.queue.clone());
        Ok(queue.ok_or_else(|| unknown(sub))?.lock().drain())
    }

    /// Terminate a continuous query / subscription (§3.1: "CQs run until
    /// they are explicitly terminated"): tears down the subscription's
    /// CQ and releases its state-budget charge and close histogram.
    pub fn unsubscribe(&self, sub: SubscriptionId) -> Result<()> {
        let ClientSub { shard, cq, .. } =
            (self.subscriptions.lock().remove(&sub)).ok_or_else(|| unknown(sub))?;
        self.engine
            .metrics()
            .remove(&format!("cq.close_us.sub_{}", sub.0));
        let mut catalog = self.catalog.lock();
        // Undelivered results leave the depth gauge with the queue's last
        // holder, the CQ's sink (its Drop impl settles the account).
        self.detach_cq(&mut shard.state.lock(), cq);
        Self::release_cq(&mut catalog, cq);
        drop(catalog);
        // Wake blocked deliverers so they notice the subscription is gone.
        self.notify.notify();
        Ok(())
    }

    /// Aggregate runtime counters. Totals come from the metrics registry
    /// (shards bump them without any shared `Db` lock); queue figures
    /// come from the live subscriptions' queues.
    pub fn stats(&self) -> DbStats {
        let queues: Vec<ClientQueue> = (self.subscriptions.lock().values())
            .map(|s| s.queue.clone())
            .collect();
        DbStats {
            tuples_in: self.metrics.tuples_in.get(),
            windows_out: self.metrics.windows_out.get(),
            rows_archived: self.metrics.rows_archived.get(),
            late_drops: self.metrics.late_drops.get(),
            sub_drops: self.metrics.sub_drops.get(),
            live_subs: queues.len() as u64,
            sub_queued: queues.iter().map(|q| q.lock().pending() as u64).sum(),
        }
    }

    /// Subscribe to a derived stream's output as-is: each closed window of
    /// the query behind it arrives as exactly one window result,
    /// unmodified. This is the engine half of the federation bridge — node
    /// A serves its derived stream over this subscription and node B
    /// re-ingests the rows. Implemented as `SELECT * FROM <name> <SLICES 1
    /// WINDOWS>`, whose pass-through semantics the batch clock guarantees
    /// (one window per upstream batch, same close, same rows). A
    /// base stream has no windows to pass through — subscribe to a query
    /// over it instead — and is refused.
    pub fn subscribe_stream(&self, name: &str) -> Result<SubscriptionId> {
        let key = name.to_ascii_lowercase();
        match self.catalog.lock().streams.get(&key) {
            None => return Err(Error::stream(format!("unknown stream `{name}`"))),
            Some(s) if s.producer.is_none() => {
                return Err(Error::stream(format!(
                    "`{name}` is a base stream: only a derived stream's windows can be \
                     subscribed to as-is; subscribe to a windowed query over it instead"
                )))
            }
            Some(_) => {}
        }
        match self.execute(&format!("SELECT * FROM {key} <SLICES 1 WINDOWS>"))? {
            ExecResult::Subscribed(id) => Ok(id),
            other => Err(Error::stream(format!(
                "subscribe_stream produced {other:?}, not a subscription"
            ))),
        }
    }
}
