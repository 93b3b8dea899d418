//! Test support for the batteries that diff sessions against the batch
//! §8 reference (`session_parity`, `streaming_parallel_props`,
//! `proptest_invariants`). Each battery uses a different subset.
#![allow(dead_code)]

use cogra::core::QueryRuntime;
use cogra::prelude::*;
use std::sync::Arc;

/// Outcome of [`run_parallel`].
#[derive(Debug)]
pub struct ParallelRun {
    /// All window results, merged and deterministically sorted.
    pub results: Vec<WindowResult>,
    /// Number of workers actually used.
    pub workers: usize,
}

/// The batch shard-then-join reference: split a finite recorded stream
/// by the `GROUP-BY`-prefix hash, run every shard to completion on its
/// own thread under one COGRA engine, merge and sort. A query without a
/// `GROUP-BY` prefix cannot shard and runs the whole stream on one
/// engine. It shares no code with the live shard pool.
pub fn run_parallel(rt: &Arc<QueryRuntime>, events: &[Event], workers: usize) -> ParallelRun {
    let workers = if rt.query.group_prefix == 0 {
        1
    } else {
        workers.max(1)
    };
    let shards: Vec<Vec<Event>> = if workers == 1 {
        vec![events.to_vec()]
    } else {
        let mut shards = vec![Vec::new(); workers];
        for e in events {
            // Events without a partition key are dropped by every engine.
            if let Some(group_hash) = rt.group_hash(e) {
                shards[(group_hash % workers as u64) as usize].push(e.clone());
            }
        }
        shards
    };
    let mut results: Vec<WindowResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || {
                    let mut engine = CograEngine::from_runtime(Arc::clone(rt));
                    run_to_completion(&mut engine, shard, 64).0
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    WindowResult::sort(&mut results);
    ParallelRun { results, workers }
}
