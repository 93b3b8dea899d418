//! One pass = one run of a workload's stream through a public surface,
//! checked against the reference. The in-memory passes drive `Session`;
//! the served passes drive `Server` through `Client` over loopback.

use crate::lag::{window_of_row, LagRecorder};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Kind, Workload, BLOCK};
use cogra_core::WindowResult;
use cogra_server::{Client, Server, ServerConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Offered rate of the served lag passes, in events per second.
pub const LAG_RATE: f64 = 200_000.0;

/// What one pass measured.
#[derive(Debug)]
pub struct Outcome {
    /// Events fed.
    pub events: usize,
    /// First input in to last result collected.
    pub elapsed: Duration,
    /// Result lag samples, in ms (lag passes only), and the number of
    /// windows they came from.
    pub lag_ms: Vec<f64>,
    pub lag_windows: usize,
    /// `Err` when the run erred, panicked, lost a result or disagreed
    /// with the reference.
    pub check: Result<(), String>,
    /// `INGEST` blocks sent, and how many of them erred.
    pub blocks: u64,
    pub blocks_failed: u64,
    pub served: ServedStats,
}

/// Served-path observations.
#[derive(Debug, Default)]
pub struct ServedStats {
    pub spawn: Duration,
    /// Round trip of each `Client::ingest`, in µs.
    pub rtt_us: Vec<f64>,
    /// How late each block was sent against its schedule, in ms.
    pub late_ms: Vec<f64>,
    /// Results the server counted (`FINISH`), and `RESULT` lines received.
    pub pushed: u64,
    pub received: u64,
    /// First due time to the end of the last block's slot, for the
    /// offered rate.
    pub send_span: Duration,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            events: 0,
            elapsed: Duration::ZERO,
            lag_ms: Vec::new(),
            lag_windows: 0,
            check: Ok(()),
            blocks: 0,
            blocks_failed: 0,
            served: ServedStats::default(),
        }
    }
}

impl Outcome {
    pub fn eps(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn failed(events: usize, why: String) -> Outcome {
        Outcome {
            events,
            check: Err(why),
            ..Outcome::default()
        }
    }
}

/// Run `f`, turning a panic into a failed outcome.
fn guarded(events: usize, f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Outcome::failed(events, format!("panicked: {why}"))
    })
}

/// The workload's batch call, timed: `run_csv` on stock-csv, `run`
/// otherwise. The session is built before the clock starts.
pub fn batch(w: &Workload) -> Outcome {
    let n = w.events.len();
    guarded(n, || {
        let session = w.session(w.workers);
        let start = Instant::now();
        let run = match w.kind {
            Kind::StockCsv => session.run_csv(&w.csv, &w.registry),
            _ => Ok(session.run(&w.events)),
        };
        let elapsed = start.elapsed();
        let check = match &run {
            Err(e) => Err(format!("run failed: {e}")),
            Ok(run) if run.late_events > 0 => Err(format!("{} late events", run.late_events)),
            Ok(run) => w.reference.check(run.results()),
        };
        Outcome {
            events: n,
            elapsed,
            check,
            ..Outcome::default()
        }
    })
}

/// Block-by-block streaming through the session's incremental surface:
/// `ingest_csv` documents on stock-csv, `process` loops otherwise, with a
/// drain after each block. A result's lag runs from the start of its
/// closing block to the return of the drain that emitted it.
pub fn streamed(w: &Workload) -> Outcome {
    let n = w.events.len();
    guarded(n, || {
        let mut session = w.session(w.workers);
        let mut rec = LagRecorder::new(&w.block_max, w.window, w.slack);
        let mut results: Vec<WindowResult> = Vec::with_capacity(w.reference.count);
        let mut check = Ok(());
        let start = Instant::now();
        for (b, chunk) in w.events.chunks(BLOCK).enumerate() {
            rec.due.push(Instant::now());
            if w.kind == Kind::StockCsv {
                if let Err(e) = session.ingest_csv(&w.blocks[b], &w.registry) {
                    check = Err(format!("block {b}: {e}"));
                    break;
                }
            } else {
                for e in chunk {
                    session.process(e);
                }
            }
            let drained = session.drain();
            let at = Instant::now();
            for r in drained {
                rec.record(r.result.window, at);
                results.push(r.result);
            }
        }
        results.extend(session.finish().into_iter().map(|r| r.result));
        let elapsed = start.elapsed();
        if check.is_ok() {
            check = w.reference.check(&results);
        }
        let (lag_ms, lag_windows) = rec.finish();
        Outcome {
            events: n,
            elapsed,
            lag_ms,
            lag_windows,
            check,
            ..Outcome::default()
        }
    })
}

/// How the feeder paces its `INGEST` blocks.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Next block as soon as the previous one is acknowledged.
    Closed,
    /// Blocks due on a fixed schedule at this many events per second.
    Open(f64),
}

/// Serve the first `blocks` blocks of the workload: spawn a server, one
/// subscriber thread and one feeder connection, send the blocks, `FINISH`,
/// and collect every pushed result. With a tracer, each wait, ingest and
/// the finish are recorded as spans under a root span named `root`.
/// A whole-stream pass is checked against the reference; a prefix pass
/// only checks that every pushed result arrived.
pub fn served(
    w: &Workload,
    load: Load,
    blocks: usize,
    tracer: Option<(&mut Tracer, &'static str)>,
) -> Outcome {
    let events = w.events.len().min(blocks * BLOCK);
    guarded(events, || served_inner(w, load, blocks, events, tracer))
}

fn served_inner(
    w: &Workload,
    load: Load,
    blocks: usize,
    events: usize,
    mut tracer: Option<(&mut Tracer, &'static str)>,
) -> Outcome {
    let mut stats = ServedStats::default();
    let spawn_start = Instant::now();
    let server = match Server::spawn(
        w.builder(),
        w.registry.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(events, format!("server spawn: {e}")),
    };
    let subscription = Client::connect(server.local_addr())
        .and_then(|c| c.subscribe(None))
        .map_err(|e| e.to_string())
        .and_then(|r| r);
    let subscription = match subscription {
        Ok(s) => s,
        Err(e) => return Outcome::failed(events, format!("subscribe: {e}")),
    };
    let mut feed = match Client::connect(server.local_addr()) {
        Ok(c) => c,
        Err(e) => return Outcome::failed(events, format!("connect: {e}")),
    };
    stats.spawn = spawn_start.elapsed();

    let consumer = std::thread::spawn(move || {
        let mut got: Vec<(Instant, String)> = Vec::new();
        for item in subscription {
            match item {
                Ok((_, row)) => got.push((Instant::now(), row)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(got)
    });

    let mut rec = LagRecorder::new(&w.block_max[..blocks], w.window, w.slack);
    let root: Option<SpanId> = tracer.as_mut().map(|(t, name)| t.open(name, None, 0));
    let mut check = Ok(());
    let mut blocks_failed = 0;
    let period = match load {
        Load::Open(rate) => Duration::from_secs_f64(BLOCK as f64 / rate),
        Load::Closed => Duration::ZERO,
    };
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut first_send = None;
    let mut last_send = t0;
    for (b, block) in w.blocks[..blocks].iter().enumerate() {
        let due = match load {
            Load::Open(_) => {
                let due = t0 + period * b as u32;
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    match &mut tracer {
                        Some((t, _)) => t.time("loadgen.wait", root, b as u64, 1, || {
                            std::thread::sleep(wait)
                        }),
                        None => std::thread::sleep(wait),
                    }
                }
                due
            }
            Load::Closed => Instant::now(),
        };
        rec.due.push(due);
        let send = Instant::now();
        first_send.get_or_insert(send);
        last_send = send;
        stats
            .late_ms
            .push(send.saturating_duration_since(due).as_secs_f64() * 1e3);
        let reply = match &mut tracer {
            Some((t, _)) => t.time("server.ingest", root, b as u64, 1, || feed.ingest(block)),
            None => feed.ingest(block),
        };
        stats.rtt_us.push(send.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                blocks_failed += 1;
                check = Err(format!("INGEST block {b}: {e}"));
            }
            Err(e) => {
                blocks_failed += 1;
                check = Err(format!("INGEST block {b}: {e}"));
                break;
            }
        }
    }
    let finish = match &mut tracer {
        Some((t, _)) => t.time("server.finish", root, blocks as u64, 1, || feed.finish()),
        None => feed.finish(),
    };
    // Every pushed line is in the subscriber's socket before the FINISH
    // reply; stopping the server first ends the subscription even when
    // FINISH failed.
    server.shutdown();
    let received = consumer.join();
    if let (Some((t, _)), Some(root)) = (&mut tracer, root) {
        t.close(root);
    }
    let first_send = first_send.unwrap_or(t0);
    // From the first due time to the end of the last block's slot.
    stats.send_span = last_send.saturating_duration_since(t0.min(first_send)) + period;

    match finish {
        Ok(Ok(report)) => stats.pushed = report.results,
        Ok(Err(e)) => check = check.and(Err(format!("FINISH: {e}"))),
        Err(e) => check = check.and(Err(format!("FINISH: {e}"))),
    }
    let rows = match received {
        Ok(Ok(rows)) => rows,
        Ok(Err(e)) => return Outcome::failed(events, format!("subscriber: {e}")),
        Err(_) => return Outcome::failed(events, "subscriber panicked".to_string()),
    };
    stats.received = rows.len() as u64;
    let last_result = rows
        .iter()
        .map(|(at, _)| *at)
        .max()
        .unwrap_or_else(Instant::now);
    for (at, row) in &rows {
        match window_of_row(row) {
            Some(window) => rec.record(window, *at),
            None => check = check.and(Err(format!("unparsable RESULT row `{row}`"))),
        }
    }
    if check.is_ok() && stats.received != stats.pushed {
        check = Err(format!(
            "{} RESULT lines for {} results",
            stats.received, stats.pushed
        ));
    }
    if check.is_ok() && blocks == w.blocks.len() {
        check = w.reference.check_rows(rows.into_iter().map(|(_, row)| row));
    }
    let (lag_ms, lag_windows) = rec.finish();
    Outcome {
        events,
        elapsed: last_result.saturating_duration_since(first_send),
        lag_ms,
        lag_windows,
        check,
        blocks: blocks as u64,
        blocks_failed,
        served: stats,
    }
}
