//! Per-partition shard execution (§7/§8) — the one execution path of
//! every [`Session`](crate::session::Session).
//!
//! "Equivalence predicates and the GROUP-BY clause partition the stream
//! into sub-streams that are processed in parallel independently from
//! each other. Such stream partitioning enables a highly scalable
//! execution." Events within one sub-stream are processed in time order
//! by a single shard, which is exactly the stream-transaction ordering
//! guarantee §8 requires.
//!
//! Sharding is by the *output group* (the `GROUP-BY` prefix of the
//! partition key), so every partition contributing to one result group
//! lands on the same shard and no cross-shard aggregate merging is
//! needed. A query without `GROUP-BY` cannot shard (there is nothing to
//! partition results by) and is pinned to one shard instead. Every
//! engine kind shards this way: each is a partition router over its own
//! per-window algorithm.
//!
//! [`StreamingPool`] runs the shards. One shard is *inline*: routing
//! calls it directly on the caller's thread with the borrowed event — no
//! thread, no channel, no staging. More shards are long-lived worker
//! threads fed by bounded channels carrying **batches** of pre-hashed
//! events, with watermark broadcasts so a drain emits every result that
//! is globally final — even on shards whose sub-stream went quiet. Under
//! `.slack(n)` each shard repairs its own sub-stream with a private
//! [`ReorderBuffer`] while a coordinator-side [`LateGate`] keeps the drop
//! decisions identical to a single front reorderer.
//!
//! Each worker runs its commands under a panic guard. Under
//! [`FailurePolicy::Restart`] the worker recovers by itself: it keeps its
//! shard's last drain or snapshot as a baseline plus a journal of the
//! items received since, and rebuilds from them after a panic. The
//! coordinator only sees a worker that is gone — it quarantines the
//! shard under [`FailurePolicy::Degrade`] and fails the pool otherwise.

use crate::engine::TrendEngine;
use crate::output::WindowResult;
use crate::runtime::QueryRuntime;
use crate::session::EngineKind;
use cogra_checkpoint::CheckpointError;
use cogra_engine::{entry_group_hash, RouterState, RunStats};
use cogra_events::{Event, LateGate, ReorderBuffer, Timestamp};
use std::borrow::Cow;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One physical query a pool runs: its engine kind over its compiled
/// runtime ([`EngineKind::runtime`]).
pub type PoolQuery = (EngineKind, Arc<QueryRuntime>);

/// A shard-hosted engine, built by [`EngineKind::engine`].
type Engine = Box<dyn TrendEngine + Send>;

/// Shard index of a group-prefix hash — THE placement rule of live
/// routing and checkpoint re-sharding alike.
fn shard_index(group_hash: u64, shards: usize) -> usize {
    (group_hash % shards as u64) as usize
}

/// How many shards a query can use: the requested worker count, unless
/// the query has no `GROUP-BY` prefix to shard on.
fn effective_workers(rt: &QueryRuntime, requested: usize) -> usize {
    if rt.query.group_prefix == 0 {
        1
    } else {
        requested.max(1)
    }
}

/// The shard a query's counters live on: the first shard for a
/// shardable query, the pinned shard `q % shards` otherwise.
fn home_shard(rt: &QueryRuntime, query: usize, shards: usize) -> usize {
    if rt.query.group_prefix > 0 {
        0
    } else {
        query % shards
    }
}

/// Whether `shard` hosts an engine for `query`: every shard hosts a
/// query with a `GROUP-BY` prefix, a pinned query lives on its home
/// shard only.
fn hosts(rt: &QueryRuntime, query: usize, shards: usize, shard: usize) -> bool {
    rt.query.group_prefix > 0 || query % shards == shard
}

/// What a pool does when a shard worker dies (panics or exits without
/// being asked). Set via `SessionBuilder::on_worker_failure`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Surface a sticky, typed [`WorkerFailure`]: the pool stops
    /// accepting events and emits nothing further. The default — a
    /// correctness-first caller wants the loud error, not partial data.
    #[default]
    Fail,
    /// Quarantine the dead shard and keep serving: its accumulated state
    /// and in-flight events are counted as dropped, future events for its
    /// groups reroute to the next live shard (fresh state), and the run
    /// reports which shards degraded. Availability over completeness —
    /// nothing is lost *silently*.
    Degrade,
    /// The worker recovers in place: it rebuilds its shard from its last
    /// baseline (the state it captured at its previous drain or
    /// snapshot), replays the items it received since, and re-runs the
    /// interrupted command. The merged output is byte-identical to a run
    /// without the failure (asserted by `tests/chaos_props.rs`). The cost
    /// sits on the worker thread: a shard snapshot at every drain and a
    /// copy of every item it receives between drains. A worker that keeps
    /// dying gives up after 8 restarts and fails the pool.
    Restart,
}

/// A shard worker died. Under [`FailurePolicy::Fail`] this is the sticky
/// terminal error of the pool (surfaced as `IngestError::WorkerFailed`
/// through the session); under the other policies it is recovered
/// internally and only shows up in degraded-status reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Which shard died.
    pub shard: usize,
    /// The panic payload (or a generic message when the worker exited
    /// without one).
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} worker failed: {}", self.shard, self.message)
    }
}

/// Configuration of a [`StreamingPool`]. `batch_size` and `policy` apply
/// to worker-thread shards; an inline shard has no transport to batch
/// and no worker to supervise.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Events staged per shard before a [`Cmd::Batch`] is shipped. Staged
    /// events also flush on every drain/finish (and thus on every
    /// watermark broadcast), so the batch size bounds transport latency,
    /// never result completeness. 1 degenerates to per-event sends.
    pub batch_size: usize,
    /// Repair up to this many ticks of disorder *per shard*: each shard
    /// owns a [`ReorderBuffer`] over its own sub-stream while the
    /// coordinator's [`LateGate`] keeps late-drop decisions identical to
    /// one stream-wide front reorderer.
    pub slack: Option<u64>,
    /// Recovery behavior when a shard worker dies.
    pub policy: FailurePolicy,
}

/// What [`StreamingPool::snapshot`] captures: per-query router states
/// (merged across shards) plus the in-flight reorder-buffer items, each
/// tagged with the query it was routed for.
pub type PoolSnapshot = (Vec<RouterState>, Vec<(u32, Event)>);

/// The default shard-transport batch size: big enough to amortize a
/// bounded-channel hand-off over hundreds of events, small enough that a
/// batch stays well inside a worker's cache while it drains it.
pub const DEFAULT_BATCH_SIZE: usize = 512;

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            slack: None,
            policy: FailurePolicy::Fail,
        }
    }
}

/// One routed event bound for a shard: the event, the index of the query
/// it is for, and its precomputed full partition-key hash (`None`: the
/// event's type has no partition key; the engine drops it itself,
/// exactly like a sequential run). `Clone` so a worker can journal the
/// items it receives under [`FailurePolicy::Restart`].
#[derive(Clone)]
struct Item {
    event: Event,
    query: u32,
    key_hash: Option<u64>,
}

/// Commands the coordinator sends down a worker's bounded channel.
enum Cmd {
    /// A batch of this shard's sub-stream, in global routing order.
    Batch(Vec<Item>),
    /// A round trip every live shard answers with one [`Reply`].
    Control(Control),
}

/// The broadcast commands of [`Cmd::Control`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Control {
    /// Advance to the given safe watermark and emit everything now final.
    Drain(Timestamp),
    /// Serialize every hosted engine and the reorder buffer's in-flight
    /// items, without advancing or emitting anything — the pool stays
    /// live after a snapshot.
    Snapshot,
    /// End of stream: close every open window, report, and exit.
    Finish,
}

/// One shard's contribution to a pool snapshot — also a worker's
/// recovery baseline under [`FailurePolicy::Restart`].
#[derive(Clone)]
struct ShardSnapshot {
    /// Per query: the hosted engine's state (`None` where not hosted).
    states: Vec<Option<RouterState>>,
    /// In-flight items still in the shard's reorder buffer, in release
    /// order.
    buffered: Vec<Item>,
    /// The shard's ingest counter at snapshot time, so a rebuilt shard
    /// resumes its accounting instead of restarting from zero.
    events: u64,
}

/// A shard's counters, as its worker last reported them — what the pool
/// reads for worker-thread shards without a synchronous round trip.
#[derive(Clone, Copy)]
struct ShardReport {
    /// The shard's engines' current summed logical memory.
    memory: usize,
    /// The shard's peak summed logical memory so far (sampled every 64
    /// events plus at every batch and drain, like the measurement
    /// harness).
    peak: usize,
    /// The shard's routing hot-path counters so far, over all engines.
    stats: RunStats,
    /// Sticky key-limit overflow across the shard's engines
    /// ([`TrendEngine::key_overflow`]).
    key_overflow: Option<u32>,
    /// Events this shard has ingested into its engines so far.
    events: u64,
}

/// A worker's answer to a [`Cmd::Control`].
struct Reply {
    /// Results finalized since the previous drain, tagged with their
    /// query index.
    results: Vec<(usize, WindowResult)>,
    /// The shard's counters after the command.
    report: ShardReport,
    /// Engine + reorder-buffer state, in reply to [`Control::Snapshot`].
    snapshot: Option<ShardSnapshot>,
}

/// What a worker sends back: a [`Reply`], or — once, before it exits —
/// the panic message of the shard it lost.
type Answer = Result<Reply, String>;

struct Worker {
    /// `None` once the pool has finished (dropping it closes the channel).
    tx: Option<SyncSender<Cmd>>,
    rx: Receiver<Answer>,
    thread: Option<JoinHandle<()>>,
    /// Quarantined by [`FailurePolicy::Degrade`]: the shard is dead and
    /// stays dead; its groups reroute to the next live shard.
    quarantined: bool,
    /// The worker's last report.
    report: ShardReport,
}

/// A worker that has restarted this many times under
/// [`FailurePolicy::Restart`] gives up on its next panic — a
/// deterministic crash would otherwise restart-loop forever.
const MAX_RESTARTS: u32 = 8;

/// Backpressure bound, in batches: a worker that falls this many batches
/// behind blocks ingestion instead of buffering without limit.
const CHANNEL_CAPACITY: usize = 16;

/// Where a pool's shards run.
enum Shards {
    /// The single shard, called directly on the caller's thread.
    Inline(Shard),
    /// Worker threads behind batched channels.
    Threaded(Box<Threads>),
}

/// Live §8 sharded execution, shared across a whole session's queries:
/// one engine per (query, shard), any [`EngineKind`].
///
/// * **Inline single shard** — with one shard, [`StreamingPool::route`]
///   admits the event and feeds the shard's engines directly, borrowing
///   the event; drains emit straight from the engines. Memory and
///   counters are read live, so [`StreamingPool::memory_bytes`] is exact.
/// * **Batched transport** — worker-thread shards receive events staged
///   per shard and shipped as [`Cmd::Batch`] chunks
///   ([`PoolConfig::batch_size`], default [`DEFAULT_BATCH_SIZE`]); stages
///   flush on every drain/finish, so batching changes hand-off cost,
///   never the result set.
/// * **Shared pool** — one pool serves every query of a session: an
///   event is hashed per query and handed once to each target shard. A
///   query without a `GROUP-BY` prefix cannot shard; it is pinned to the
///   shard `query % shards`, so even a session of unshardable queries
///   spreads across the pool instead of spawning `queries × workers`
///   threads.
/// * **Per-shard reorderers** — with [`PoolConfig::slack`], each shard
///   repairs its own sub-stream through a private [`ReorderBuffer`],
///   concurrently with every other shard. A coordinator-side
///   [`LateGate`] makes the admission decision from time stamps alone,
///   so late-drop counts equal a single front [`Reorderer`]'s exactly.
/// * **Watermark broadcasts** — [`StreamingPool::drain_into`] advances
///   every shard to the safe watermark before collecting: every window
///   that closed globally is emitted, even on a shard whose sub-stream
///   went quiet.
///
/// The merged output equals one sequential engine per query — asserted
/// by `tests/streaming_parallel_props.rs` across workers × chunkings ×
/// batch sizes.
///
/// [`Reorderer`]: cogra_events::Reorderer
pub struct StreamingPool {
    queries: Vec<PoolQuery>,
    shards: Shards,
    /// Admission gate under slack (None: the stream is trusted ordered).
    gate: Option<LateGate>,
    /// Raw stream progress: the largest event time routed so far.
    raw_watermark: Timestamp,
    /// Reusable `(shard, query, key_hash)` placement scratch.
    targets: Vec<(usize, u32, Option<u64>)>,
    finished: bool,
}

impl StreamingPool {
    /// Start a pool for a session's physical queries.
    ///
    /// The pool has `workers` shards when any query can shard; a session
    /// of only unshardable (no `GROUP-BY`) queries clamps to one shard
    /// per query at most, since each such query is pinned anyway. A
    /// single shard runs inline; more spawn one worker thread each.
    pub fn new(queries: Vec<PoolQuery>, workers: usize, config: PoolConfig) -> StreamingPool {
        let gate = config.slack.map(LateGate::new);
        Self::build(queries, workers, config, None, gate, Timestamp::ZERO)
            .expect("fresh engines have no state to reject")
    }

    /// Rebuild a pool from checkpointed per-query engine states — possibly
    /// with a *different* worker count than the snapshotting pool: each
    /// query's partition entries are re-sharded by replaying the same
    /// `GROUP-BY`-prefix hash live routing uses, so the new layout is
    /// exactly what `workers` fresh shards fed the same stream would hold.
    ///
    /// `gate` and `raw_watermark` restore the admission clock; in-flight
    /// reorder-buffer items are re-staged afterwards via
    /// [`StreamingPool::restage`].
    pub fn restore(
        queries: Vec<PoolQuery>,
        workers: usize,
        config: PoolConfig,
        states: Vec<RouterState>,
        gate: Option<LateGate>,
        raw_watermark: Timestamp,
    ) -> Result<StreamingPool, CheckpointError> {
        assert_eq!(states.len(), queries.len(), "one engine state per query");
        Self::build(queries, workers, config, Some(states), gate, raw_watermark)
    }

    fn build(
        queries: Vec<PoolQuery>,
        workers: usize,
        config: PoolConfig,
        states: Option<Vec<RouterState>>,
        gate: Option<LateGate>,
        raw_watermark: Timestamp,
    ) -> Result<StreamingPool, CheckpointError> {
        assert!(!queries.is_empty(), "a pool needs at least one query");
        let shards = Self::shards_for(&queries, workers);
        let layout = layout(&queries, shards, states)?;
        // Build every engine before spawning anything, so a corrupt entry
        // surfaces as a typed error instead of a worker panic.
        let mut engines = layout
            .into_iter()
            .enumerate()
            .map(|(index, states)| build_engines(&queries, shards, index, states))
            .collect::<Result<Vec<_>, _>>()?;
        let shards = if shards == 1 {
            let engines = engines.pop().expect("one shard");
            Shards::Inline(Shard::new(engines, config.slack, 0, false))
        } else {
            Shards::Threaded(Box::new(Threads::spawn(&queries, engines, config)))
        };
        Ok(StreamingPool {
            queries,
            shards,
            gate,
            raw_watermark,
            targets: Vec::new(),
            finished: false,
        })
    }

    /// Shard count: the requested workers when any query has a `GROUP-BY`
    /// prefix to shard on; otherwise one shard per pinned query suffices.
    fn shards_for(queries: &[PoolQuery], requested: usize) -> usize {
        let requested = requested.max(1);
        if queries.iter().any(|(_, rt)| rt.query.group_prefix > 0) {
            requested
        } else {
            requested.min(queries.len())
        }
    }

    /// Number of shards (1 for an inline pool).
    fn shard_count(&self) -> usize {
        match &self.shards {
            Shards::Inline(_) => 1,
            Shards::Threaded(t) => t.workers.len(),
        }
    }

    /// Whether the shards run on worker threads (`false`: one inline
    /// shard on the caller's thread).
    pub fn is_threaded(&self) -> bool {
        matches!(self.shards, Shards::Threaded(_))
    }

    /// Widest effective shard count across the pool's queries (a query
    /// without `GROUP-BY` is pinned to one shard and counts as 1).
    pub fn workers(&self) -> usize {
        let shards = self.shard_count();
        self.queries
            .iter()
            .map(|(_, rt)| effective_workers(rt, shards))
            .max()
            .unwrap_or(1)
    }

    /// Observable stream progress: results for windows closing at or
    /// before it are final after the next [`StreamingPool::drain_into`].
    /// Without slack this is the largest routed event time; with slack it
    /// is the [`LateGate`]'s safe watermark (the largest time releasable
    /// on every shard), exactly like a front reorderer's released output.
    pub fn watermark(&self) -> Timestamp {
        match &self.gate {
            Some(gate) => gate.safe_watermark(),
            None => self.raw_watermark,
        }
    }

    /// Events refused as hopelessly late by the slack gate (0 without
    /// slack — the stream is trusted ordered then).
    pub fn late_events(&self) -> u64 {
        self.gate.as_ref().map_or(0, LateGate::late_events)
    }

    /// Summed shard-engine memory: exact for an inline shard; for
    /// worker-thread shards as of each worker's last drain (the engines
    /// run concurrently; there is no synchronous round trip here).
    pub fn memory_bytes(&self) -> usize {
        match &self.shards {
            Shards::Inline(shard) => shard.memory(),
            Shards::Threaded(t) => t.workers.iter().map(|w| w.report.memory).sum(),
        }
    }

    /// Summed shard-engine peaks (the workers run concurrently), as of
    /// each worker's last drain; final once the pool has finished. An
    /// inline shard does not sample itself — its caller samples
    /// [`StreamingPool::memory_bytes`] — so it reports its starting
    /// footprint and, once finished, the engines' finalization spikes.
    pub fn peak_bytes(&self) -> usize {
        match &self.shards {
            Shards::Inline(shard) => shard.peak,
            Shards::Threaded(t) => t.workers.iter().map(|w| w.report.peak).sum(),
        }
    }

    /// Summed shard-engine routing counters ([`RunStats`]) — live for an
    /// inline shard, as of each worker's last drain otherwise; final once
    /// the pool has finished.
    pub fn run_stats(&self) -> RunStats {
        match &self.shards {
            Shards::Inline(shard) => shard.stats(),
            Shards::Threaded(t) => {
                let mut total = RunStats::default();
                for w in &t.workers {
                    total.merge(w.report.stats);
                }
                total
            }
        }
    }

    /// Sticky partition-key overflow across every shard engine — live for
    /// an inline shard, as of each worker's last drain otherwise.
    pub fn key_overflow(&self) -> Option<u32> {
        match &self.shards {
            Shards::Inline(shard) => shard.key_overflow(),
            Shards::Threaded(t) => t.workers.iter().find_map(|w| w.report.key_overflow),
        }
    }

    /// Items ingested into each shard's engines — live for an inline
    /// shard, as of each worker's last drain otherwise; final once the
    /// pool has finished. The spread between entries is the hot-key
    /// imbalance a skewed group distribution produces.
    pub fn shard_events(&self) -> Vec<u64> {
        match &self.shards {
            Shards::Inline(shard) => vec![shard.events],
            Shards::Threaded(t) => t.workers.iter().map(|w| w.report.events).collect(),
        }
    }

    /// The sticky terminal failure, if a shard worker died under
    /// [`FailurePolicy::Fail`] (or gave up under
    /// [`FailurePolicy::Restart`]). Once set, the pool accepts no more
    /// events and emits nothing further. Always `None` for an inline
    /// shard.
    pub fn failure(&self) -> Option<&WorkerFailure> {
        match &self.shards {
            Shards::Inline(_) => None,
            Shards::Threaded(t) => t.failed.as_ref(),
        }
    }

    /// Shards quarantined by [`FailurePolicy::Degrade`], in index order.
    /// Empty on a healthy pool.
    pub fn degraded_shards(&self) -> Vec<usize> {
        match &self.shards {
            Shards::Inline(_) => Vec::new(),
            Shards::Threaded(t) => (0..t.workers.len())
                .filter(|&s| t.workers[s].quarantined)
                .collect(),
        }
    }

    /// Items lost to quarantined shards: everything delivered to a shard
    /// before it died plus everything rerouted-to-nowhere after (pinned
    /// queries whose home shard is gone). 0 on a healthy pool. Together
    /// with [`StreamingPool::shard_events`] this conserves the routed
    /// total: `routed_items == sum(shard_events) + dropped_events` once
    /// the pool finishes.
    pub fn dropped_events(&self) -> u64 {
        match &self.shards {
            Shards::Inline(_) => 0,
            Shards::Threaded(t) => t.dropped,
        }
    }

    /// Every `(event, query)` item handed to a shard, including ones
    /// later dropped by quarantine — the left-hand side of the
    /// conservation invariant chaos tests assert.
    pub fn routed_items(&self) -> u64 {
        match &self.shards {
            Shards::Inline(shard) => shard.events + shard.buffered() as u64,
            Shards::Threaded(t) => t.routed_items,
        }
    }

    /// The coordinator-side admission gate, when slack is active.
    pub fn gate(&self) -> Option<&LateGate> {
        self.gate.as_ref()
    }

    /// The largest event time routed so far (trusted-ordered path only;
    /// with slack the gate tracks the raw clock itself).
    pub fn raw_watermark(&self) -> Timestamp {
        self.raw_watermark
    }

    /// The configured per-shard disorder slack, if any.
    pub fn slack(&self) -> Option<u64> {
        self.gate.as_ref().map(LateGate::slack)
    }

    /// Snapshot the pool's live state without advancing it: every shard's
    /// engine states (merged per query in shard-index order) and
    /// in-flight reorder-buffer items. The pool remains fully usable
    /// afterwards.
    ///
    /// A failed pool ([`FailurePolicy::Fail`]) or a degraded one
    /// ([`FailurePolicy::Degrade`] after a quarantine) cannot checkpoint —
    /// part of its state is gone; the error is typed, never a partial
    /// snapshot. A worker dying *during* the snapshot under
    /// [`FailurePolicy::Restart`] recovers and answers it anyway.
    pub fn snapshot(&mut self) -> Result<PoolSnapshot, CheckpointError> {
        assert!(!self.finished, "streaming pool already finished");
        let shards = match &mut self.shards {
            Shards::Inline(shard) => vec![shard.snapshot()],
            Shards::Threaded(t) => t.snapshot()?,
        };
        let mut merged: Vec<Option<RouterState>> = (0..self.queries.len()).map(|_| None).collect();
        let mut buffered = Vec::new();
        for snap in shards {
            for (q, st) in snap.states.into_iter().enumerate() {
                if let Some(st) = st {
                    match &mut merged[q] {
                        None => merged[q] = Some(st),
                        Some(m) => m.merge(st),
                    }
                }
            }
            buffered.extend(snap.buffered.into_iter().map(|i| (i.query, i.event)));
        }
        let states = merged
            .into_iter()
            .map(|m| m.expect("every query is hosted by at least one shard"))
            .collect();
        Ok((states, buffered))
    }

    /// Re-stage one checkpointed in-flight event — for one query, or for
    /// every query (`None`: a snapshot taken behind a single front
    /// reorderer, whose buffered events had not been routed per query
    /// yet). Bypasses the admission gate: the gate was restored verbatim
    /// and these events were admitted before the snapshot. Safe to
    /// release early on the new shard: an admitted buffered event's
    /// release threshold never overtakes the gate's `released_to` floor.
    pub fn restage(&mut self, query: Option<u32>, event: Event) {
        self.compute_targets(&event);
        let targets = std::mem::take(&mut self.targets);
        for &(shard, q, key_hash) in &targets {
            if query.is_none_or(|query| query == q) {
                let event = event.clone();
                self.deliver(
                    shard,
                    Item {
                        event,
                        query: q,
                        key_hash,
                    },
                );
            }
        }
        self.targets = targets;
    }

    /// Route one event to its target shards (one per query that keeps
    /// it). A worker-thread shard [`CHANNEL_CAPACITY`] batches behind
    /// blocks the caller (backpressure, not unbounded buffering).
    /// Without slack, events must arrive in non-decreasing time order;
    /// with slack, disorder up to the slack is repaired on the shards and
    /// anything later is dropped and counted.
    pub fn route(&mut self, event: &Event) {
        self.dispatch(Cow::Borrowed(event));
    }

    /// Like [`StreamingPool::route`], consuming the event — the last
    /// target receives it without a clone.
    pub fn route_owned(&mut self, event: Event) {
        self.dispatch(Cow::Owned(event));
    }

    fn dispatch(&mut self, event: Cow<'_, Event>) {
        if !self.admit(event.time) {
            return;
        }
        self.compute_targets(&event);
        let targets = std::mem::take(&mut self.targets);
        match &mut self.shards {
            // The hot path: a trusted-ordered inline shard takes the
            // borrowed event straight into its engines.
            Shards::Inline(shard) if !shard.buffers() => {
                for &(_, query, key_hash) in &targets {
                    shard.ingest(query as usize, &event, key_hash);
                }
            }
            _ => {
                if let Some((&(shard, query, key_hash), rest)) = targets.split_last() {
                    for &(shard, query, key_hash) in rest {
                        let event = Event::clone(&event);
                        self.deliver(
                            shard,
                            Item {
                                event,
                                query,
                                key_hash,
                            },
                        );
                    }
                    let event = event.into_owned();
                    self.deliver(
                        shard,
                        Item {
                            event,
                            query,
                            key_hash,
                        },
                    );
                }
            }
        }
        self.targets = targets;
    }

    /// Hand one item to its shard: into the inline shard directly, or
    /// onto a worker's staging buffer.
    fn deliver(&mut self, shard: usize, item: Item) {
        match &mut self.shards {
            Shards::Inline(s) => s.push(item),
            Shards::Threaded(t) => t.stage(shard, item),
        }
    }

    /// Watermark bookkeeping + the late-drop decision. `true` admits.
    /// With a gate, the gate tracks the raw watermark itself and the
    /// observable watermark is its safe one — `raw_watermark` is only
    /// maintained on the trusted-ordered path.
    fn admit(&mut self, time: Timestamp) -> bool {
        assert!(!self.finished, "streaming pool already finished");
        if self.failure().is_some() {
            // Terminally failed: ignore further input; the caller sees the
            // sticky `failure()` instead of a panic.
            return false;
        }
        match &mut self.gate {
            Some(gate) => gate.admit(time),
            None => {
                self.raw_watermark = self.raw_watermark.max(time);
                true
            }
        }
    }

    /// Resolve the event's `(shard, query, key_hash)` placements into the
    /// reusable `targets` scratch — one entry per query that keeps the
    /// event.
    fn compute_targets(&mut self, event: &Event) {
        let shards = self.shard_count();
        self.targets.clear();
        for (q, (_, rt)) in self.queries.iter().enumerate() {
            if rt.query.group_prefix > 0 {
                // Shardable: the group hash places the event, the full-key
                // hash rides along so the shard's router probes without
                // re-extracting the key. `None` drops the event for this
                // query (no partition key), consistently with every engine.
                if let Some((group_hash, key_hash)) = rt.route_hashes(event) {
                    self.targets
                        .push((shard_index(group_hash, shards), q as u32, Some(key_hash)));
                }
            } else {
                // Unshardable: pinned to one shard, which sees the whole
                // stream — including events without a partition key (the
                // engine drops them itself, exactly like a sequential run).
                self.targets
                    .push((q % shards, q as u32, rt.key_hash(event)));
            }
        }
    }

    /// Emit every result final at the safe watermark. Every shard first
    /// catches up to it, so shards whose sub-stream went quiet still
    /// close the windows that closed globally. An inline shard emits per
    /// query in engine order; worker-thread shards' results are merged
    /// per query in deterministic (window, group) order.
    pub fn drain_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.finished {
            return;
        }
        let safe = self.watermark();
        match &mut self.shards {
            Shards::Inline(shard) => {
                shard.advance_to(safe);
                shard.drain(out);
            }
            Shards::Threaded(t) => t.drain(safe, out),
        }
    }

    /// End of stream: flush the shard reorder buffers, close every open
    /// window on every shard, emit the remainder, and join the worker
    /// threads. Further drains are no-ops; further routing is a bug (and
    /// panics). On a terminally failed pool this emits nothing — the
    /// caller sees [`StreamingPool::failure`].
    pub fn finish_into(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.finished {
            return;
        }
        self.finished = true;
        match &mut self.shards {
            Shards::Inline(shard) => shard.finish(out),
            Shards::Threaded(t) => t.finish(out),
        }
    }
}

/// Each shard's per-query starting state. Fresh pools start empty; a
/// checkpointed query's partition entries are re-sharded onto `shards`
/// by replaying the group-prefix hash live routing uses, so the layout
/// is exactly what `shards` fresh shards fed the same stream would hold.
fn layout(
    queries: &[PoolQuery],
    shards: usize,
    states: Option<Vec<RouterState>>,
) -> Result<Vec<Vec<Option<RouterState>>>, CheckpointError> {
    let mut layout: Vec<Vec<Option<RouterState>>> = (0..shards)
        .map(|_| (0..queries.len()).map(|_| None).collect())
        .collect();
    let Some(states) = states else {
        return Ok(layout);
    };
    for (q, ((_, rt), state)) in queries.iter().zip(states).enumerate() {
        let RouterState {
            watermark,
            stats,
            drained_to,
            finalize_spike,
            entries,
        } = state;
        let home = home_shard(rt, q, shards);
        let mut split: Vec<Vec<Vec<u8>>> = (0..shards).map(|_| Vec::new()).collect();
        if rt.query.group_prefix == 0 || shards == 1 {
            split[home] = entries;
        } else {
            for entry in entries {
                let h = entry_group_hash(&entry, rt.query.group_prefix)?;
                split[shard_index(h, shards)].push(entry);
            }
        }
        for (s, entries) in split.into_iter().enumerate() {
            if !hosts(rt, q, shards, s) {
                debug_assert!(entries.is_empty());
                continue;
            }
            // Counters and the finalize spike live once, on the query's
            // home shard; the watermark and drain floor are global and go
            // to every hosting shard.
            layout[s][q] = Some(RouterState {
                watermark,
                stats: if s == home {
                    stats
                } else {
                    RunStats::default()
                },
                drained_to,
                finalize_spike: if s == home { finalize_spike } else { 0 },
                entries,
            });
        }
    }
    Ok(layout)
}

/// Build one shard's engines from its layout: restored where a state is
/// given, fresh where the shard hosts the query without one.
fn build_engines(
    queries: &[PoolQuery],
    shards: usize,
    index: usize,
    states: Vec<Option<RouterState>>,
) -> Result<Vec<Option<Engine>>, CheckpointError> {
    queries
        .iter()
        .zip(states)
        .enumerate()
        .map(|(q, ((kind, rt), state))| {
            if state.is_none() && !hosts(rt, q, shards, index) {
                return Ok(None);
            }
            kind.engine(Arc::clone(rt), state).map(Some)
        })
        .collect()
}

/// The worker-thread half of a pool: batched transport, the workers'
/// last reports, and what happens when a worker dies. Recovery under
/// [`FailurePolicy::Restart`] runs inside each worker; the coordinator
/// only sees a worker that is gone, and then quarantines its shard
/// ([`FailurePolicy::Degrade`]) or fails the pool.
struct Threads {
    /// The pool's queries, for rerouting and merging results.
    queries: Vec<PoolQuery>,
    workers: Vec<Worker>,
    /// Per-shard staging buffers awaiting a batch send.
    stages: Vec<Vec<Item>>,
    batch_size: usize,
    /// Recovery behavior when a shard worker dies.
    policy: FailurePolicy,
    /// The sticky terminal failure.
    failed: Option<WorkerFailure>,
    /// Items staged per shard since pool start (delivered or in flight);
    /// frozen at 0 when a shard is quarantined.
    delivered: Vec<u64>,
    /// Every item staged across the pool, including ones later dropped.
    routed_items: u64,
    /// Items lost to quarantined shards ([`FailurePolicy::Degrade`]).
    dropped: u64,
}

impl Threads {
    /// Spawn one worker per shard, each owning its pre-built engines.
    fn spawn(queries: &[PoolQuery], engines: Vec<Vec<Option<Engine>>>, config: PoolConfig) -> Self {
        let shards = engines.len();
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(index, engines)| {
                let shard = Shard::new(engines, config.slack, 0, true);
                // Under Restart the starting layout is a worker's first
                // baseline.
                let recovery = (config.policy == FailurePolicy::Restart).then(|| Recovery {
                    queries: queries.to_vec(),
                    shards,
                    slack: config.slack,
                    baseline: shard.snapshot(),
                    journal: Vec::new(),
                    restarts: 0,
                });
                spawn_worker(Supervisor {
                    index,
                    shard,
                    recovery,
                })
            })
            .collect();
        Threads {
            queries: queries.to_vec(),
            workers,
            stages: (0..shards).map(|_| Vec::new()).collect(),
            batch_size: config.batch_size.max(1),
            policy: config.policy,
            failed: None,
            delivered: vec![0; shards],
            routed_items: 0,
            dropped: 0,
        }
    }

    /// Collect every shard's state in one round trip, without advancing
    /// anything; staged batches are flushed first.
    fn snapshot(&mut self) -> Result<Vec<ShardSnapshot>, CheckpointError> {
        self.snapshot_guard()?;
        self.flush_stages();
        self.snapshot_guard()?;
        let snaps = self
            .broadcast(Control::Snapshot)
            .into_iter()
            .map(|reply| {
                reply
                    .snapshot
                    .expect("snapshot round trip returns shard state")
            })
            .collect();
        self.snapshot_guard()?;
        Ok(snaps)
    }

    /// The typed reasons a pool cannot produce a complete snapshot.
    fn snapshot_guard(&self) -> Result<(), CheckpointError> {
        if let Some(f) = &self.failed {
            return Err(CheckpointError::Unsupported(format!(
                "cannot checkpoint a failed session ({f})"
            )));
        }
        if self.workers.iter().any(|w| w.quarantined) {
            return Err(CheckpointError::Unsupported(
                "cannot checkpoint a degraded session (a shard worker was quarantined)".into(),
            ));
        }
        Ok(())
    }

    /// Send one control command to a shard. `false`: the shard is not
    /// participating (quarantined, dead, or the pool failed).
    fn send_control(&mut self, shard: usize, control: Control) -> bool {
        if self.failed.is_some() {
            return false;
        }
        let Some(tx) = self.workers[shard].tx.as_ref() else {
            return false;
        };
        if tx.send(Cmd::Control(control)).is_ok() {
            return true;
        }
        self.lost(shard, None);
        false
    }

    /// Receive a shard's reply to a control command. `None`: the shard
    /// dropped out of this round trip (its worker died, or the pool
    /// failed).
    fn recv_reply(&mut self, shard: usize) -> Option<Reply> {
        if self.failed.is_some() || self.workers[shard].tx.is_none() {
            return None;
        }
        match self.workers[shard].rx.recv() {
            Ok(Ok(reply)) => Some(reply),
            Ok(Err(message)) => {
                self.lost(shard, Some(message));
                None
            }
            Err(_) => {
                self.lost(shard, None);
                None
            }
        }
    }

    /// The worker on `shard` is gone (send failed, receive disconnected,
    /// or an in-band failure reply arrived — passed as `got`): quarantine
    /// its shard under [`FailurePolicy::Degrade`], fail the pool
    /// otherwise (under [`FailurePolicy::Restart`] the worker has already
    /// used up its restarts).
    fn lost(&mut self, shard: usize, got: Option<String>) {
        let failure = self.failure_of(shard, got);
        match self.policy {
            FailurePolicy::Degrade => self.quarantine(shard),
            FailurePolicy::Fail | FailurePolicy::Restart => self.fail_all(failure),
        }
    }

    /// Reap a dead worker and name its failure: close our end, skim its
    /// reply channel for the in-band failure report (it races the channel
    /// teardown), and join the thread.
    fn failure_of(&mut self, shard: usize, got: Option<String>) -> WorkerFailure {
        let w = &mut self.workers[shard];
        w.tx = None;
        let mut message = got;
        while message.is_none() {
            match w.rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(answer) => message = answer.err(), // skim data replies
                Err(_) => break,
            }
        }
        if let Some(t) = w.thread.take() {
            let _ = t.join();
        }
        WorkerFailure {
            shard,
            message: message.unwrap_or_else(|| "shard worker exited unexpectedly".into()),
        }
    }

    /// Terminal failure: record it, stop every worker, drop staged items.
    fn fail_all(&mut self, failure: WorkerFailure) {
        self.failed = Some(failure);
        self.close();
        for stage in &mut self.stages {
            stage.clear();
        }
    }

    /// Close every worker's channel and reap its thread (panics arrived
    /// in-band).
    fn close(&mut self) {
        for w in &mut self.workers {
            w.tx = None;
            if let Some(t) = w.thread.take() {
                let _ = t.join();
            }
        }
    }

    /// [`FailurePolicy::Degrade`]: the shard stays dead. Everything ever
    /// delivered to it (processed state and in-flight items alike) is
    /// accounted as dropped; its groups reroute to the next live shard
    /// from here on.
    fn quarantine(&mut self, shard: usize) {
        let w = &mut self.workers[shard];
        w.quarantined = true;
        w.report.memory = 0;
        w.report.events = 0;
        self.dropped += self.delivered[shard];
        self.delivered[shard] = 0;
        self.stages[shard].clear();
    }

    /// Where an item bound for `shard` actually goes: the shard itself
    /// while it lives; after a quarantine, the next live shard (shardable
    /// queries — every shard hosts them) or nowhere (pinned queries whose
    /// home worker is gone).
    fn live_target(&self, shard: usize, query: u32) -> Option<usize> {
        if !self.workers[shard].quarantined {
            return Some(shard);
        }
        if self.queries[query as usize].1.query.group_prefix == 0 {
            return None;
        }
        let n = self.workers.len();
        (1..n)
            .map(|k| (shard + k) % n)
            .find(|&s| !self.workers[s].quarantined)
    }

    /// Append one item to a shard's staging buffer (rerouted past
    /// quarantined shards), shipping the buffer as a batch once it
    /// reaches the configured size.
    fn stage(&mut self, shard: usize, item: Item) {
        self.routed_items += 1;
        let Some(shard) = self.live_target(shard, item.query) else {
            // A pinned query's home worker is quarantined — the item has
            // nowhere correct to go; count it instead of losing it silently.
            self.dropped += 1;
            return;
        };
        self.delivered[shard] += 1;
        let stage = &mut self.stages[shard];
        stage.push(item);
        if stage.len() >= self.batch_size {
            self.ship(shard);
        }
    }

    /// Send a shard's staged events as one [`Cmd::Batch`]. A dead channel
    /// means the worker is gone and the batch with it: under Degrade it is
    /// part of the quarantined shard's counted losses, otherwise the pool
    /// fails.
    fn ship(&mut self, shard: usize) {
        if self.stages[shard].is_empty() {
            return;
        }
        let cap = self.batch_size.min(4096);
        let batch = std::mem::replace(&mut self.stages[shard], Vec::with_capacity(cap));
        let Some(tx) = self.workers[shard].tx.as_ref() else {
            return; // quarantined or failed since staging
        };
        if tx.send(Cmd::Batch(batch)).is_err() {
            self.lost(shard, None);
        }
    }

    /// Flush every shard's staging buffer — always precedes a broadcast,
    /// so a drain or finish never outruns staged events.
    fn flush_stages(&mut self) {
        for shard in 0..self.stages.len() {
            self.ship(shard);
        }
    }

    /// Flush staged batches and broadcast the safe watermark, then merge
    /// every result final at it.
    fn drain(&mut self, safe: Timestamp, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.failed.is_some() {
            return;
        }
        self.flush_stages();
        self.round_trip(Control::Drain(safe), out);
    }

    /// Flush staged batches, close every shard's windows, emit the merged
    /// remainder, and join the workers.
    fn finish(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        if self.failed.is_none() {
            self.flush_stages();
            self.round_trip(Control::Finish, out);
        }
        self.close();
    }

    /// Broadcast one command to every live shard and collect the replies,
    /// keeping each worker's report. Command fan-out happens before any
    /// reply collection so the shards work concurrently. A shard whose
    /// worker dies along the way has no reply.
    fn broadcast(&mut self, control: Control) -> Vec<Reply> {
        let sent: Vec<bool> = (0..self.workers.len())
            .map(|s| self.send_control(s, control))
            .collect();
        let mut replies = Vec::with_capacity(sent.len());
        for (s, &ok) in sent.iter().enumerate() {
            if let Some(reply) = ok.then(|| self.recv_reply(s)).flatten() {
                self.workers[s].report = reply.report;
                replies.push(reply);
            }
        }
        replies
    }

    /// Broadcast a drain or finish and merge the replies per query. A
    /// pool that fails terminally mid-trip emits nothing (no partial
    /// result set masquerading as a complete one).
    fn round_trip(&mut self, control: Control, out: &mut dyn FnMut(usize, WindowResult)) {
        let mut merged: Vec<Vec<WindowResult>> = vec![Vec::new(); self.queries.len()];
        for reply in self.broadcast(control) {
            for (q, r) in reply.results {
                merged[q].push(r);
            }
        }
        if self.failed.is_some() {
            return;
        }
        for (q, results) in merged.iter_mut().enumerate() {
            // Shards own disjoint (window, group) result spaces per query,
            // so this sort is a deterministic merge — independent of the
            // shard count.
            WindowResult::sort(results);
            for r in results.drain(..) {
                out(q, r);
            }
        }
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.close();
    }
}

/// Spawn a worker thread running `supervisor`. The pool's copy of its
/// report starts at the shard's footprint, so a freshly restored pool
/// reports it before any drain.
fn spawn_worker(supervisor: Supervisor) -> Worker {
    let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel(CHANNEL_CAPACITY);
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let report = supervisor.shard.report();
    let thread = std::thread::spawn(move || shard_worker(supervisor, cmd_rx, reply_tx));
    Worker {
        tx: Some(cmd_tx),
        rx: reply_rx,
        thread: Some(thread),
        quarantined: false,
        report,
    }
}

/// One shard: an engine per query it hosts (every query with a
/// `GROUP-BY` prefix; pinned queries only on their home shard), plus the
/// shard's private reorder buffer under slack. The same code runs inline
/// (called directly by the pool) and inside a worker thread.
struct Shard {
    engines: Vec<Option<Engine>>,
    /// Per-shard disorder repair ([`PoolConfig::slack`]); the admission
    /// decision already happened at the coordinator's [`LateGate`].
    reorder: Option<ReorderBuffer<Item>>,
    slack: u64,
    /// The largest raw event time this shard has seen in its sub-stream.
    local_watermark: Timestamp,
    /// Scratch for released items (reused across releases).
    released: Vec<Item>,
    /// Sample peak memory every 64 ingested events. Worker threads only:
    /// an inline shard's caller reads [`Shard::memory`] directly, and the
    /// walk must stay off its per-event path.
    sampling: bool,
    peak: usize,
    since_sample: usize,
    /// Events ingested into this shard's engines (the per-shard counter
    /// behind [`StreamingPool::shard_events`]).
    events: u64,
}

impl Shard {
    fn new(engines: Vec<Option<Engine>>, slack: Option<u64>, events: u64, sampling: bool) -> Shard {
        let mut shard = Shard {
            engines,
            reorder: slack.map(|_| ReorderBuffer::new()),
            slack: slack.unwrap_or(0),
            local_watermark: Timestamp::ZERO,
            released: Vec::new(),
            sampling,
            peak: 0,
            since_sample: 0,
            events,
        };
        shard.peak = shard.memory();
        shard
    }

    /// Serialize the shard for a pool snapshot or a recovery baseline:
    /// every hosted engine's state, the reorder buffer's in-flight items
    /// in release order, and the ingest counter.
    fn snapshot(&self) -> ShardSnapshot {
        let states = self
            .engines
            .iter()
            .map(|e| {
                e.as_ref().map(|e| {
                    e.snapshot_state()
                        .expect("every EngineKind engine is a router")
                })
            })
            .collect();
        let buffered = match &self.reorder {
            Some(buffer) => buffer
                .ordered()
                .into_iter()
                .map(|(_, item)| item.clone())
                .collect(),
            None => Vec::new(),
        };
        ShardSnapshot {
            states,
            buffered,
            events: self.events,
        }
    }

    fn memory(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.memory_bytes())
            .sum()
    }

    fn stats(&self) -> RunStats {
        let mut total = RunStats::default();
        for e in self.engines.iter().flatten() {
            total.merge(e.run_stats());
        }
        total
    }

    fn key_overflow(&self) -> Option<u32> {
        self.engines.iter().flatten().find_map(|e| e.key_overflow())
    }

    fn sample_peak(&mut self) {
        self.peak = self.peak.max(self.memory());
        self.since_sample = 0;
    }

    /// Whether items pass through the reorder buffer (slack is active).
    fn buffers(&self) -> bool {
        self.reorder.is_some()
    }

    /// Items waiting in the reorder buffer.
    fn buffered(&self) -> usize {
        self.reorder.as_ref().map_or(0, ReorderBuffer::len)
    }

    /// Feed one in-order event to its query's engine. The coordinator
    /// hashed the key to place the event; reuse it so the key is
    /// extracted once per event.
    fn ingest(&mut self, query: usize, event: &Event, key_hash: Option<u64>) {
        self.engines[query]
            .as_mut()
            .expect("coordinator only targets hosted queries")
            .process_prehashed(event, key_hash);
        self.events += 1;
        if self.sampling {
            self.since_sample += 1;
            if self.since_sample >= 64 {
                self.sample_peak();
            }
        }
    }

    /// Take one routed item: straight into its engine when the stream is
    /// trusted ordered, otherwise through the reorder buffer, releasing
    /// everything `slack` ticks behind this shard's own watermark.
    fn push(&mut self, item: Item) {
        match &mut self.reorder {
            None => self.ingest(item.query as usize, &item.event, item.key_hash),
            Some(buffer) => {
                self.local_watermark = self.local_watermark.max(item.event.time);
                buffer.push(item.event.time, item);
                self.release(self.local_watermark.saturating_sub(self.slack));
            }
        }
    }

    /// Ingest one transported batch, sampling the peak at the batch
    /// boundary besides the every-64-events stride: a burst shorter than
    /// the stride would otherwise stay invisible until the next drain.
    fn on_batch(&mut self, items: impl IntoIterator<Item = Item>) {
        for item in items {
            self.push(item);
        }
        if self.since_sample > 0 {
            self.sample_peak();
        }
    }

    /// Ingest every buffered item at or before `up_to`, in order.
    fn release(&mut self, up_to: Timestamp) {
        let Some(buffer) = &mut self.reorder else {
            return;
        };
        let mut released = std::mem::take(&mut self.released);
        buffer.release_up_to(up_to, &mut released);
        for item in released.drain(..) {
            self.ingest(item.query as usize, &item.event, item.key_hash);
        }
        self.released = released;
    }

    /// Catch the shard up to the safe watermark: release every buffered
    /// item at or before it (the gate guarantees anything still buffered
    /// beyond it is not yet globally final), then advance every hosted
    /// engine so globally-closed windows finalize even if this shard's
    /// own sub-stream went quiet.
    fn advance_to(&mut self, safe: Timestamp) {
        self.release(safe);
        for e in self.engines.iter_mut().flatten() {
            e.advance_watermark(safe);
        }
    }

    /// Emit every hosted engine's final results, tagged with the query.
    fn drain(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        for (q, e) in self.engines.iter_mut().enumerate() {
            if let Some(e) = e {
                e.drain_into(&mut |r| out(q, r));
            }
        }
    }

    /// End of stream: flush the reorder buffer into the engines, close
    /// every window, and fold the engines' finalization spikes into the
    /// peak.
    fn finish(&mut self, out: &mut dyn FnMut(usize, WindowResult)) {
        self.release(Timestamp(u64::MAX));
        if self.sampling {
            self.sample_peak();
        }
        let mut hint = 0usize;
        for (q, e) in self.engines.iter_mut().enumerate() {
            if let Some(e) = e {
                e.finish_into(&mut |r| out(q, r));
                hint += e.peak_hint();
            }
        }
        self.peak = self.peak.max(hint);
    }

    /// This shard's counters, as its worker reports them.
    fn report(&self) -> ShardReport {
        ShardReport {
            memory: self.memory(),
            peak: self.peak,
            stats: self.stats(),
            key_overflow: self.key_overflow(),
            events: self.events,
        }
    }

    /// Answer one round trip as worker `index`.
    fn control(&mut self, index: usize, control: Control) -> Reply {
        let mut results = Vec::new();
        let mut snapshot = None;
        match control {
            Control::Drain(wm) => {
                failpoint("drain", index);
                self.advance_to(wm);
                self.sample_peak();
                self.drain(&mut |q, r| results.push((q, r)));
            }
            Control::Snapshot => {
                failpoint("snapshot", index);
                self.sample_peak();
                snapshot = Some(self.snapshot());
            }
            Control::Finish => {
                failpoint("finish", index);
                self.finish(&mut |q, r| results.push((q, r)));
            }
        }
        Reply {
            results,
            report: self.report(),
            snapshot,
        }
    }
}

/// With the `faults` feature, the per-shard failpoint
/// `worker/{kind}/{index}` (`kind`: `batch`, `drain`, `snapshot` or
/// `finish`) panics the worker on schedule — each shard's command stream
/// is deterministic given the routing, so the hit counters are too.
/// Without the feature this is a no-op.
fn failpoint(kind: &str, index: usize) {
    #[cfg(feature = "faults")]
    cogra_faults::maybe_panic(&format!("worker/{kind}/{index}"));
    #[cfg(not(feature = "faults"))]
    let _ = (kind, index);
}

/// A worker's own [`FailurePolicy::Restart`] state: what it needs to
/// rebuild its shard after a panic.
struct Recovery {
    /// The pool's queries and shard count, to rebuild the engines.
    queries: Vec<PoolQuery>,
    shards: usize,
    slack: Option<u64>,
    /// The shard as of its last drain or snapshot (its starting layout
    /// before the first).
    baseline: ShardSnapshot,
    /// Every item received since the baseline, in arrival order.
    journal: Vec<Item>,
    /// Restarts so far, for the [`MAX_RESTARTS`] escalation.
    restarts: u32,
}

impl Recovery {
    /// Rebuild shard `index` as it stood before a panic: the baseline's
    /// engines and ingest counter, then the baseline's buffered items and
    /// the journal fed back in order. Exact and emission-safe: results
    /// only leave a shard at drains, and every drain refreshes the
    /// baseline, so nothing is lost or emitted twice.
    fn rebuild(&self, index: usize) -> Shard {
        let states = self.baseline.states.clone();
        let engines = build_engines(&self.queries, self.shards, index, states)
            .expect("a baseline the shard serialized itself rebuilds");
        let mut shard = Shard::new(engines, self.slack, self.baseline.events, true);
        shard.on_batch(self.baseline.buffered.iter().chain(&self.journal).cloned());
        shard
    }
}

/// A worker thread's shard under its panic guard.
struct Supervisor {
    index: usize,
    shard: Shard,
    /// `Some` under [`FailurePolicy::Restart`].
    recovery: Option<Recovery>,
}

impl Supervisor {
    /// Run one command. `Ok(None)`: a batch, which has no reply. `Err`:
    /// the shard is lost; the worker reports the message and exits.
    fn run(&mut self, cmd: Cmd) -> Result<Option<Reply>, String> {
        let control = match cmd {
            Cmd::Batch(items) => {
                if let Some(recovery) = &mut self.recovery {
                    recovery.journal.extend_from_slice(&items);
                }
                let (shard, index) = (&mut self.shard, self.index);
                let ran = guarded(|| {
                    shard.on_batch(items);
                    // Fire *after* the batch mutated the engines: recovery
                    // must discard the partial work, not resume over it.
                    failpoint("batch", index);
                });
                if let Err(message) = ran {
                    // The rebuilt shard has replayed this batch from the
                    // journal; there is nothing to re-run.
                    self.restart(message)?;
                }
                return Ok(None);
            }
            Cmd::Control(control) => control,
        };
        loop {
            let (shard, recovery, index) = (&mut self.shard, &mut self.recovery, self.index);
            let ran = guarded(|| {
                let reply = shard.control(index, control);
                // A drain or snapshot is the new baseline: nothing the
                // journal holds is needed to rebuild past it.
                if let Some(recovery) = recovery.as_mut().filter(|_| control != Control::Finish) {
                    recovery.baseline = match &reply.snapshot {
                        Some(snapshot) => snapshot.clone(),
                        None => shard.snapshot(),
                    };
                    recovery.journal.clear();
                }
                reply
            });
            match ran {
                Ok(reply) => return Ok(Some(reply)),
                Err(message) => self.restart(message)?,
            }
        }
    }

    /// A command panicked with `message`. Under Restart, rebuild the
    /// shard; otherwise, or once [`MAX_RESTARTS`] are used up, return the
    /// failure the worker reports.
    fn restart(&mut self, mut message: String) -> Result<(), String> {
        let Some(recovery) = &mut self.recovery else {
            return Err(message);
        };
        loop {
            if recovery.restarts >= MAX_RESTARTS {
                return Err(format!(
                    "giving up after {MAX_RESTARTS} restarts: {message}"
                ));
            }
            recovery.restarts += 1;
            match guarded(|| recovery.rebuild(self.index)) {
                Ok(mut shard) => {
                    shard.peak = shard.peak.max(self.shard.peak);
                    self.shard = shard;
                    return Ok(());
                }
                // The rebuild itself panicked: that counts as a restart too.
                Err(panic) => message = panic,
            }
        }
    }
}

/// Run `f`, catching a panic as its message. A shard a panic interrupts
/// is rebuilt or abandoned, never used again, so `AssertUnwindSafe` is
/// sound here.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Render a caught panic payload — the `panic!` message when there is
/// one, a generic marker otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// A worker thread's loop: run every command under the supervisor and
/// answer every round trip. A lost shard is reported in-band, as an
/// `Err` answer instead of a panic re-raised into the coordinator, and
/// the worker exits.
fn shard_worker(mut supervisor: Supervisor, rx: Receiver<Cmd>, tx: Sender<Answer>) {
    for cmd in rx {
        let finish = matches!(cmd, Cmd::Control(Control::Finish));
        let reply = match supervisor.run(cmd) {
            Ok(None) => continue,
            Ok(Some(reply)) => reply,
            Err(message) => {
                let _ = tx.send(Err(message));
                return;
            }
        };
        if tx.send(Ok(reply)).is_err() || finish {
            return; // finished, or the coordinator dropped mid-round-trip
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cogra::CograEngine;
    use crate::engine::run_to_completion;
    use cogra_events::{EventBuilder, TypeRegistry, Value, ValueKind};

    fn runtime(reg: &TypeRegistry, query: &str) -> Arc<QueryRuntime> {
        let q = cogra_query::parse(query).unwrap();
        Arc::new(QueryRuntime::new(
            cogra_query::compile(&q, reg).unwrap(),
            reg,
        ))
    }

    fn setup(n: usize) -> (Arc<QueryRuntime>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let b = reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let rt = runtime(
            &reg,
            "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) SEMANTICS ANY \
             GROUP-BY g WITHIN 16 SLIDE 8",
        );
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..n)
            .map(|i| {
                let ty = if i % 3 == 2 { b } else { a };
                builder.event(
                    (i + 1) as u64,
                    ty,
                    vec![Value::Int((i % 7) as i64), Value::Int((i % 5) as i64)],
                )
            })
            .collect();
        (rt, events)
    }

    /// One sequential COGRA engine over the whole stream.
    fn sequential(rt: &Arc<QueryRuntime>, events: &[Event]) -> Vec<WindowResult> {
        let mut engine = CograEngine::from_runtime(Arc::clone(rt));
        run_to_completion(&mut engine, events, 64).0
    }

    fn pool(rt: &Arc<QueryRuntime>, workers: usize, batch: usize) -> StreamingPool {
        StreamingPool::new(
            vec![(EngineKind::Cogra, Arc::clone(rt))],
            workers,
            PoolConfig {
                batch_size: batch,
                slack: None,
                policy: FailurePolicy::Fail,
            },
        )
    }

    #[test]
    fn streaming_pool_matches_sequential_engine() {
        let (rt, events) = setup(300);
        let expected = sequential(&rt, &events);
        for workers in [1, 2, 4, 8] {
            for batch_size in [1, 7, DEFAULT_BATCH_SIZE, 10_000] {
                let mut pool = pool(&rt, workers, batch_size);
                assert_eq!(pool.is_threaded(), workers > 1);
                let mut results = Vec::new();
                let mut push = |_q: usize, r: WindowResult| results.push(r);
                for (i, e) in events.iter().enumerate() {
                    pool.route(e);
                    if i % 50 == 49 {
                        pool.drain_into(&mut push);
                    }
                }
                pool.finish_into(&mut push);
                WindowResult::sort(&mut results);
                assert_eq!(results, expected, "workers={workers} batch={batch_size}");
                assert_eq!(pool.workers(), workers);
                assert!(pool.peak_bytes() > 0, "workers={workers}");
            }
        }
    }

    #[test]
    fn streaming_pool_drains_live_before_finish() {
        let (rt, events) = setup(300);
        let mut pool = pool(&rt, 4, DEFAULT_BATCH_SIZE);
        let mut live = Vec::new();
        for e in &events {
            pool.route(e);
        }
        pool.drain_into(&mut |_q, r| live.push(r));
        assert!(
            !live.is_empty(),
            "closed windows are emitted before finish()"
        );
        // The window containing the watermark is still open.
        let spec = rt.query.window;
        let last_closed = spec.last_closed(pool.watermark()).unwrap();
        assert!(live.iter().all(|r| r.window <= last_closed));
        let mut rest = Vec::new();
        pool.finish_into(&mut |_q, r| rest.push(r));
        live.extend(rest);
        WindowResult::sort(&mut live);
        assert_eq!(live, sequential(&rt, &events));
    }

    #[test]
    fn quiet_shard_still_closes_global_windows() {
        // Every event goes to one group, so with many shards all but one
        // worker see an empty sub-stream — the watermark broadcast alone
        // must close their (empty) windows and the drain must still emit
        // the busy shard's finalized results.
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let b = reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let rt = runtime(
            &reg,
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY \
             GROUP-BY g WITHIN 8 SLIDE 4",
        );
        let mut builder = EventBuilder::new();
        let events: Vec<Event> = (0..40)
            .map(|i| {
                let ty = if i % 3 == 2 { b } else { a };
                builder.event((i + 1) as u64, ty, vec![Value::Int(1), Value::Int(i)])
            })
            .collect();
        let mut pool = pool(&rt, 8, DEFAULT_BATCH_SIZE);
        let mut live = Vec::new();
        for e in &events {
            pool.route(e);
        }
        pool.drain_into(&mut |_q, r| live.push(r));
        assert!(!live.is_empty());
        pool.finish_into(&mut |_q, r| live.push(r));
        WindowResult::sort(&mut live);
        assert_eq!(live, sequential(&rt, &events));
    }

    #[test]
    fn pool_finish_is_idempotent_and_no_group_clamps_to_one() {
        let mut reg = TypeRegistry::new();
        let a = reg.register_type("A", vec![("v", ValueKind::Int)]);
        let rt = runtime(&reg, "RETURN COUNT(*) PATTERN A+ WITHIN 8 SLIDE 4");
        let mut pool = pool(&rt, 8, DEFAULT_BATCH_SIZE);
        assert_eq!(pool.workers(), 1, "no GROUP-BY ⇒ one shard");
        assert!(!pool.is_threaded(), "one shard runs inline");
        let mut b = EventBuilder::new();
        let events: Vec<Event> = (0..20u64)
            .map(|i| b.event(i + 1, a, vec![Value::Int(i as i64)]))
            .collect();
        for e in &events {
            pool.route_owned(e.clone());
        }
        let mut out = Vec::new();
        pool.finish_into(&mut |_q, r| out.push(r));
        assert_eq!(out, sequential(&rt, &events));
        let n = out.len();
        let mut extra = 0usize;
        pool.finish_into(&mut |_q, _r| extra += 1);
        pool.drain_into(&mut |_q, _r| extra += 1);
        assert_eq!(extra, 0, "post-finish drains emit nothing");
        assert_eq!(out.len(), n);
    }

    #[test]
    fn shared_pool_serves_multiple_queries_with_tagged_results() {
        let (rt, events) = setup(200);
        let mut reg = TypeRegistry::new();
        reg.register_type("A", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        reg.register_type("B", vec![("g", ValueKind::Int), ("v", ValueKind::Int)]);
        let rt2 = runtime(
            &reg,
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS NEXT \
             GROUP-BY g WITHIN 16 SLIDE 8",
        );
        let mut pool = StreamingPool::new(
            vec![
                (EngineKind::Cogra, Arc::clone(&rt)),
                (EngineKind::Sase, Arc::clone(&rt2)),
            ],
            4,
            PoolConfig::default(),
        );
        let mut per_query: Vec<Vec<WindowResult>> = vec![Vec::new(), Vec::new()];
        for e in &events {
            pool.route(e);
        }
        pool.finish_into(&mut |q, r| per_query[q].push(r));
        for (q, rt) in [(0usize, &rt), (1usize, &rt2)] {
            let mut got = per_query[q].clone();
            WindowResult::sort(&mut got);
            assert_eq!(got, sequential(rt, &events), "query {q}");
        }
    }

    #[test]
    fn batch_flush_samples_peak_below_the_64_event_stride() {
        // A burst shorter than the 64-event sampling stride must still
        // register its peak at the batch-flush boundary — sampling only
        // every 64 events under-reported sub-interval bursts.
        let (rt, events) = setup(10);
        let engines = vec![Some(
            EngineKind::Cogra.engine(Arc::clone(&rt), None).unwrap(),
        )];
        let mut shard = Shard::new(engines, None, 0, true);
        let items: Vec<Item> = events
            .iter()
            .map(|e| Item {
                event: e.clone(),
                query: 0,
                key_hash: rt.key_hash(e),
            })
            .collect();
        shard.on_batch(items);
        assert!(shard.memory() > 0);
        assert_eq!(
            shard.peak,
            shard.memory(),
            "a 10-event batch samples peak at its flush boundary"
        );
        assert_eq!(shard.events, 10, "per-shard ingest counter");
    }

    #[test]
    fn inline_shard_never_samples_and_reports_exact_memory() {
        let (rt, events) = setup(200);
        let mut pool = pool(&rt, 1, DEFAULT_BATCH_SIZE);
        let start = pool.peak_bytes();
        let mut reference = CograEngine::from_runtime(Arc::clone(&rt));
        for e in &events {
            pool.route(e);
            reference.process(e);
        }
        assert_eq!(pool.memory_bytes(), reference.memory_bytes());
        assert!(pool.memory_bytes() > start);
        assert_eq!(
            pool.peak_bytes(),
            start,
            "the caller samples, not the shard"
        );
    }

    #[test]
    fn pool_surfaces_per_shard_event_counts() {
        let (rt, events) = setup(300);
        let mut pool = pool(&rt, 4, DEFAULT_BATCH_SIZE);
        for e in &events {
            pool.route(e);
        }
        let mut out = Vec::new();
        pool.finish_into(&mut |_q, r| out.push(r));
        let per_shard = pool.shard_events();
        assert_eq!(per_shard.len(), 4);
        let total: u64 = per_shard.iter().sum();
        assert_eq!(total, events.len() as u64, "every routed event counted");
        assert!(
            per_shard.iter().filter(|&&n| n > 0).count() > 1,
            "the 7-group stream spreads across shards: {per_shard:?}"
        );
        assert!(pool.key_overflow().is_none(), "no limit configured");
    }

    /// A shard snapshot as bytes, for equality: states, buffered items
    /// (with their query and key hash) and the ingest counter.
    fn snapshot_bytes(snap: &ShardSnapshot) -> Vec<u8> {
        let mut enc = cogra_checkpoint::Enc::new();
        for state in &snap.states {
            enc.bool(state.is_some());
            if let Some(state) = state {
                state.save(&mut enc);
            }
        }
        enc.usize(snap.buffered.len());
        for item in &snap.buffered {
            enc.u32(item.query);
            enc.opt_u64(item.key_hash);
            item.event.save(&mut enc);
        }
        enc.u64(snap.events);
        enc.into_bytes()
    }

    #[test]
    fn rebuild_from_baseline_and_journal_reproduces_the_shard() {
        // What a Restart worker does after a panic, without the `faults`
        // feature: rebuild from the last baseline plus the journal of the
        // items received since, and continue as if nothing happened.
        let (rt, ordered) = setup(160);
        let mut disordered = Vec::with_capacity(ordered.len());
        for chunk in ordered.chunks(5) {
            disordered.extend(chunk.iter().rev().cloned());
        }
        let items: Vec<Item> = disordered
            .iter()
            .map(|e| Item {
                event: e.clone(),
                query: 0,
                key_hash: rt.key_hash(e),
            })
            .collect();
        let (head, tail) = items.split_at(73);
        let queries: Vec<PoolQuery> = vec![(EngineKind::Cogra, Arc::clone(&rt))];
        let slack = Some(5);
        let engines = build_engines(&queries, 2, 0, vec![None]).unwrap();
        let mut shard = Shard::new(engines, slack, 0, true);
        shard.on_batch(head.iter().cloned());
        let mut drained = Vec::new();
        shard.advance_to(Timestamp(40));
        shard.drain(&mut |q, r| drained.push((q, r)));
        assert!(!drained.is_empty(), "the baseline follows a real drain");
        let mut recovery = Recovery {
            queries,
            shards: 2,
            slack,
            baseline: shard.snapshot(),
            journal: Vec::new(),
            restarts: 0,
        };
        assert!(
            !recovery.baseline.buffered.is_empty(),
            "the baseline holds reorder-buffered items"
        );
        recovery.journal.extend_from_slice(tail);
        shard.on_batch(tail.iter().cloned());

        let mut rebuilt = recovery.rebuild(0);
        assert_eq!(
            snapshot_bytes(&rebuilt.snapshot()),
            snapshot_bytes(&shard.snapshot())
        );
        assert_eq!(rebuilt.events, shard.events);
        let later = |shard: &mut Shard| {
            let mut out = Vec::new();
            shard.advance_to(Timestamp(120));
            shard.drain(&mut |q, r| out.push((q, r)));
            shard.finish(&mut |q, r| out.push((q, r)));
            out
        };
        let expected = later(&mut shard);
        assert!(!expected.is_empty());
        assert_eq!(later(&mut rebuilt), expected);
    }

    #[test]
    fn per_shard_reorderers_repair_bounded_disorder() {
        let (rt, ordered) = setup(120);
        // Reverse blocks of 5: disorder bounded by 5 ticks.
        let mut disordered = Vec::with_capacity(ordered.len());
        for chunk in ordered.chunks(5) {
            disordered.extend(chunk.iter().rev().cloned());
        }
        let expected = sequential(&rt, &ordered);
        for (workers, batch_size) in [(1, 1), (4, 1), (4, 7), (4, DEFAULT_BATCH_SIZE)] {
            let mut pool = StreamingPool::new(
                vec![(EngineKind::Cogra, Arc::clone(&rt))],
                workers,
                PoolConfig {
                    batch_size,
                    slack: Some(5),
                    policy: FailurePolicy::Fail,
                },
            );
            let mut out = Vec::new();
            for (i, e) in disordered.iter().enumerate() {
                pool.route(e);
                if i % 30 == 29 {
                    pool.drain_into(&mut |_q, r| out.push(r));
                }
            }
            pool.finish_into(&mut |_q, r| out.push(r));
            WindowResult::sort(&mut out);
            assert_eq!(out, expected, "workers={workers} batch={batch_size}");
            assert_eq!(pool.late_events(), 0, "workers={workers}");
        }
    }
}
