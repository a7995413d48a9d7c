//! Client subscriptions (§3.1). A subscription is one record: its CQ, the
//! shard that CQ runs in, and its members, each with a bounded queue. The
//! first member exists before the CQ and the members' `Arc` rides in the
//! CQ's sink, so `pump` offers each window straight to them under the
//! shard lock it holds, from the first. The first member is the embedded
//! poller's member 0 — or, for a subscription a server registers
//! ([`Db::serve`]), the server's, and so is every member after it.
//!
//! The table lock and each subscription's lock (`core.sub_queue`) are
//! leaves: nothing is acquired while either is held, so they are not in
//! the declared lock order. `pump` takes a subscription's lock under its
//! shard's `state`.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use streamrel_cq::CqOutput;
use streamrel_sql::analyzer::AnalyzedQuery;
use streamrel_sql::ast::Statement;
use streamrel_sql::parser::parse_statement;
use streamrel_types::{Error, Result};

use super::{Catalog, Db, DbStats, ExecResult};
use crate::shard::{Shard, Sink};
use crate::subscription::{Group, Member, MemberAccount, Members, Outlet, SubscriptionId};

/// One client subscription.
pub(super) struct ClientSub {
    /// The shard its CQ runs in.
    shard: Arc<Shard>,
    cq: u64,
    /// The members its CQ's sink offers to.
    members: Group,
}

fn unknown(sub: SubscriptionId) -> Error {
    Error::stream(format!("unknown subscription {sub:?}"))
}

/// A subscribing statement's first member, if a server's: its key and
/// the outlet all its members are served through.
pub(super) type First<'a> = Option<(u64, &'a Outlet)>;

impl Db {
    /// Register a continuous plan for a client (the continuous half of a
    /// `SELECT`). The first member's queue exists before the CQ does, so
    /// every window the CQ closes is delivered, shed or pending in it.
    pub(super) fn subscribe(
        &self,
        mut catalog: MutexGuard<'_, Catalog>,
        analyzed: &AnalyzedQuery,
        first: First<'_>,
    ) -> Result<ExecResult> {
        let id = SubscriptionId(catalog.next_sub);
        let (key, outlet) = first.unwrap_or((0, &self.metrics.embedded));
        let members = Members::new(self.options.sub_queue_capacity, key, outlet.clone());
        let members = Arc::new(Mutex::named("core.sub_queue", members));
        let sink = Sink::Client(id, members.clone());
        let (shard, cq, _) = self.register_cq(&mut catalog, analyzed, sink)?;
        catalog.next_sub += 1;
        drop(catalog);
        let sub = ClientSub { shard, cq, members };
        self.subscriptions.lock().insert(id, sub);
        Ok(ExecResult::Subscribed(id))
    }

    /// Execute one SQL statement for a server: a subscription it
    /// registers is served through `outlet`, its first member keyed
    /// `key`.
    pub fn serve(&self, sql: &str, key: u64, outlet: &Outlet) -> Result<ExecResult> {
        self.execute_as(sql, Some((key, outlet)))
    }

    fn execute_as(&self, sql: &str, first: First<'_>) -> Result<ExecResult> {
        match parse_statement(sql)? {
            Statement::Select(query) => self.select(&query, first),
            stmt => self.execute_stmt(stmt, sql, true),
        }
    }

    /// Drain pending window results for a subscription (its member 0).
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
        Ok(self.members(sub)?.lock().drain(0))
    }

    fn members(&self, sub: SubscriptionId) -> Result<Group> {
        let subs = self.subscriptions.lock();
        (subs.get(&sub).map(|s| s.members.clone())).ok_or_else(|| unknown(sub))
    }

    /// Member `key`'s end of a subscription.
    pub fn member(&self, sub: SubscriptionId, key: u64) -> Result<Member> {
        Ok(Member::new(self.members(sub)?, key))
    }

    /// Seat member `key` in a subscription: it is offered every window
    /// the subscription closes from now on, into a queue of its own,
    /// accounted and served as the subscription's first member is.
    pub fn join(&self, sub: SubscriptionId, key: u64) -> Result<Member> {
        let members = self.members(sub)?;
        if !members.lock().seat(key) {
            return Err(Error::stream(format!("{sub:?} ended or seats {key}")));
        }
        Ok(Member::new(members, key))
    }

    /// Unseat member `key` and return its account: the windows still
    /// `queued` are lost. The subscription ends with its last member.
    pub fn leave(&self, sub: SubscriptionId, key: u64) -> Result<MemberAccount> {
        let (account, last) = self.members(sub)?.lock().unseat(key);
        if last {
            self.unsubscribe(sub)?;
        }
        account.ok_or_else(|| Error::stream(format!("{sub:?} has no member {key}")))
    }

    /// Terminate a continuous query / subscription (§3.1: "CQs run until
    /// they are explicitly terminated"): tears down the subscription's
    /// CQ and releases its state-budget charge and close histogram.
    pub fn unsubscribe(&self, sub: SubscriptionId) -> Result<()> {
        let ClientSub { shard, cq, members } =
            (self.subscriptions.lock().remove(&sub)).ok_or_else(|| unknown(sub))?;
        members.lock().ended = true;
        self.engine
            .metrics()
            .remove(&format!("cq.close_us.sub_{}", sub.0));
        let mut catalog = self.catalog.lock();
        // Undelivered results leave the depth gauge with their queue's
        // last holder (its Drop impl settles the account).
        self.detach_cq(&mut shard.state.lock(), cq);
        Self::release_cq(&mut catalog, cq);
        drop(catalog);
        // Wake blocked deliverers so they notice the subscription is gone.
        self.notify.notify();
        Ok(())
    }

    /// Aggregate runtime counters. Totals come from the metrics registry
    /// (shards bump them without any shared `Db` lock); queue figures
    /// come from the live subscriptions' embedded members.
    pub fn stats(&self) -> DbStats {
        let groups: Vec<Group> = (self.subscriptions.lock().values())
            .map(|s| s.members.clone())
            .collect();
        DbStats {
            tuples_in: self.metrics.tuples_in.get(),
            windows_out: self.metrics.windows_out.get(),
            rows_archived: self.metrics.rows_archived.get(),
            late_drops: self.metrics.late_drops.get(),
            sub_drops: self.metrics.embedded.drops.get(),
            live_subs: groups.len() as u64,
            sub_queued: groups.iter().map(|g| g.lock().embedded_pending()).sum(),
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
        self.stream_feed(name, None)
    }

    /// [`Db::subscribe_stream`] for a server, as [`Db::serve`] runs a
    /// statement.
    pub fn serve_stream(&self, name: &str, key: u64, outlet: &Outlet) -> Result<SubscriptionId> {
        self.stream_feed(name, Some((key, outlet)))
    }

    fn stream_feed(&self, name: &str, first: First<'_>) -> Result<SubscriptionId> {
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
        let sql = format!("SELECT * FROM {key} <SLICES 1 WINDOWS>");
        match self.execute_as(&sql, first)? {
            ExecResult::Subscribed(id) => Ok(id),
            other => Err(Error::stream(format!(
                "subscribe_stream produced {other:?}, not a subscription"
            ))),
        }
    }
}
