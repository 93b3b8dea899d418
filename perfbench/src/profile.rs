//! The `--trace 1` run: every layer's cost on the workload's stream.
//!
//! The workload's own path is replayed through the same public calls its
//! batch call makes, with spans around each call (phase `path`). Layers
//! off that path are timed by standalone probes over the same stream
//! (phases `probe.*`), so every workload reports every layer metric.
//! The profile repeats until `--seconds` have passed; each metric is the
//! median over repetitions. Spans are written to
//! `perfbench/out/trace-<workload>-<seed>-<rep>.tsv`.

use crate::json::Json;
use crate::passes::{self, Load, Outcome, LAG_RATE};
use crate::stats;
use crate::trace::{Tracer, STRIDE};
use crate::workload::{self, Kind, Workload, BLOCK, SERVED_SLACK};
use crate::{Report, Tally};
use cogra_core::session::{Session, TaggedResult};
use cogra_core::WindowResult;
use cogra_events::{Event, EventReader, Reorderer};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("events.csv.decode_ns_per_event", "ns"),
    ("events.reorder.push_ns_per_event", "ns"),
    ("events.reorder.late_frac", "frac"),
    ("query.compile_us", "us"),
    ("core.session.build_us", "us"),
    ("core.session.process_ns_per_event", "ns"),
    ("core.session.drain_ns_per_event", "ns"),
    ("core.session.finish_ms", "ms"),
    ("core.session.memory_probe_share", "frac"),
    ("engine.intern.key_probes", "count"),
    ("engine.intern.key_allocs", "count"),
    ("engine.intern.alloc_ratio", "frac"),
    ("engine.state_bytes_peak", "bytes"),
    ("engine.state_bytes_end", "bytes"),
    ("core.parallel.speedup_vs_1w", "x"),
    ("core.parallel.shard_imbalance", "x"),
    ("core.parallel.process_ns_per_event", "ns"),
    ("core.parallel.drain_us_per_call", "us"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("server.spawn_ms", "ms"),
    ("server.ingest_rtt_us_p50", "us"),
    ("server.ingest_rtt_us_tail", "us"),
    ("server.results_pushed", "count"),
    ("server.results_received", "count"),
    ("loadgen.offered_eps", "1/s"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.sustained_eps", "1/s"),
    ("trace.unattributed_share", "frac"),
    ("trace.overhead_ratio", "x"),
];

/// Timed repetitions of the compile and build probes per profile.
const PROBE_REPS: usize = 20;
/// `Session::run` samples memory every this many events at 1 worker.
const MEMORY_CADENCE: usize = 64;
/// `Session::run` drains the shard pool every this many events.
const POOL_DRAIN_CADENCE: usize = 2048;
/// The fixed, absolute rate ladder of the sustained-rate search (ev/s).
const LADDER: [f64; 6] = [
    50_000.0,
    100_000.0,
    200_000.0,
    400_000.0,
    800_000.0,
    1_600_000.0,
];
/// Stream time each ladder rung offers, at most the whole stream.
const RUNG: Duration = Duration::from_millis(250);
/// Lag limit of the sustained rate, on the tail percentile.
const LAG_LIMIT_MS: f64 = 10.0;

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut shares: Vec<Json> = Vec::new();
    let mut fidelity: Vec<Json> = Vec::new();
    let mut rungs = Json::Arr(Vec::new());
    // The reorder probe runs over the served arrival order; an in-order
    // stream gets the same seeded disorder below the slack first.
    let arrival = match w.slack {
        0 => workload::disorder(w.events.clone(), SERVED_SLACK, seed),
        _ => w.events.clone(),
    };
    let mut rep = 0;
    loop {
        let origin = Instant::now();
        let mut phases: Vec<(&'static str, Tracer)> = Vec::new();
        let once = catch_unwind(AssertUnwindSafe(|| {
            profile_once(w, &arrival, origin, &mut phases, &mut tally)
        }));
        let Ok(once) = once else {
            tally.fail("the profile panicked".into());
            break;
        };
        for (name, value) in once.metrics {
            samples.entry(name).or_default().push(value);
        }
        shares.push(Json::obj(
            once.shares.into_iter().map(|(k, v)| (k, Json::Num(v))),
        ));
        fidelity.push(Json::Num(once.fidelity));
        rungs = once.rungs;
        if let Err(e) = write_trace(w.kind, seed, rep, &phases) {
            eprintln!("warning: trace not written: {e}");
        }
        rep += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, samples.get(name).and_then(|v| stats::median(v))))
        .collect();
    Report {
        tally,
        metrics,
        meta: vec![
            ("profiles".to_string(), Json::Int(rep as u64)),
            ("path_shares".to_string(), Json::Arr(shares)),
            ("batch_over_replay_eps".to_string(), Json::Arr(fidelity)),
            ("ladder".to_string(), rungs),
            ("sample_stride".to_string(), Json::Int(STRIDE as u64)),
        ],
    }
}

struct Profile {
    metrics: Vec<(&'static str, f64)>,
    shares: BTreeMap<&'static str, f64>,
    rungs: Json,
    /// Batch-call throughput over untraced-replay throughput (NaN on the
    /// served path, which is not replayed).
    fidelity: f64,
}

fn profile_once(
    w: &Workload,
    arrival: &[Event],
    origin: Instant,
    phases: &mut Vec<(&'static str, Tracer)>,
    tally: &mut Tally,
) -> Profile {
    let n = w.events.len() as f64;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut phase = |name: &'static str, tracer: Tracer| phases.push((name, tracer));

    // query + core.session set-up.
    let mut t = Tracer::at(origin);
    for _ in 0..PROBE_REPS {
        let compiled = t.time("query.compile", None, 0, 1, || {
            cogra_query::parse(&w.query).and_then(|q| cogra_query::compile(&q, &w.registry))
        });
        if let Err(e) = compiled {
            tally.fail(format!("compile: {e}"));
        }
        let session = t.time("core.session.build", None, 0, 1, || w.session(1));
        drop(session);
    }
    m.push(("query.compile_us", median_ns(&t, "query.compile") / 1e3));
    m.push((
        "core.session.build_us",
        median_ns(&t, "core.session.build") / 1e3,
    ));
    phase("probe.setup", t);

    // events.csv: EventReader over the stream's CSV blocks.
    let mut t = Tracer::at(origin);
    let root = t.open("probe.decode", None, 0);
    let mut decoded = 0usize;
    for (b, doc) in w.blocks.iter().enumerate() {
        decoded += t.time("events.csv.decode", Some(root), b as u64, 1, || {
            EventReader::new(doc, &w.registry).map_or(0, |r| r.filter(Result::is_ok).count())
        });
    }
    t.close(root);
    if decoded != w.events.len() {
        tally.fail(format!("decoded {decoded} of {} events", w.events.len()));
    }
    m.push((
        "events.csv.decode_ns_per_event",
        t.total_ns("events.csv.decode") / n,
    ));
    phase("probe.decode", t);

    // events.reorder: a standalone Reorderer over the arrival stream.
    let mut t = Tracer::at(origin);
    let root = t.open("probe.reorder", None, 0);
    let mut reorderer = Reorderer::new(SERVED_SLACK);
    let mut out = Vec::with_capacity(BLOCK * 2);
    for (b, chunk) in arrival.chunks(BLOCK).enumerate() {
        t.time("events.reorder.push", Some(root), b as u64, 1, || {
            for e in chunk {
                reorderer.push(e.clone(), &mut out);
            }
        });
        out.clear();
    }
    reorderer.flush(&mut out);
    t.close(root);
    m.push((
        "events.reorder.push_ns_per_event",
        t.total_ns("events.reorder.push") / n,
    ));
    m.push((
        "events.reorder.late_frac",
        reorderer.late_events() as f64 / n,
    ));
    phase("probe.reorder", t);

    // core.session + engine + checkpoint: the 1-worker replay.
    let one_path = w.workers == 1 && w.kind != Kind::RideshareServed;
    let root_name = if one_path { "path" } else { "probe.session" };
    // The untraced replay runs first, so that any slowdown of a second
    // run counts against tracing, not for it.
    let plain_one = replay_one_worker(w, &mut Tracer::disabled(), root_name).outcome;
    tally.pass(&plain_one);
    let mut t = Tracer::at(origin);
    let replay = replay_one_worker(w, &mut t, root_name);
    tally.pass(&replay.outcome);
    let replay_ns = t.total_ns(root_name);
    m.push((
        "core.session.process_ns_per_event",
        per_call(&t, "core.session.process"),
    ));
    m.push((
        "core.session.drain_ns_per_event",
        per_call(&t, "core.session.drain"),
    ));
    m.push((
        "core.session.finish_ms",
        t.total_ns("core.session.finish") / 1e6,
    ));
    m.push((
        "core.session.memory_probe_share",
        t.total_ns("core.session.memory_probe") / replay_ns,
    ));
    m.push(("engine.intern.key_probes", replay.key_probes as f64));
    m.push(("engine.intern.key_allocs", replay.key_allocs as f64));
    m.push((
        "engine.intern.alloc_ratio",
        replay.key_allocs as f64 / (replay.key_probes as f64).max(1.0),
    ));
    m.push(("engine.state_bytes_end", replay.end_bytes as f64));
    m.push(("checkpoint.write_ms", t.total_ns("checkpoint.write") / 1e6));
    m.push(("checkpoint.bytes", replay.snapshot_bytes as f64));
    m.push((
        "checkpoint.restore_ms",
        t.total_ns("checkpoint.restore") / 1e6,
    ));
    let mut shares = if one_path {
        t.shares("path")
    } else {
        BTreeMap::new()
    };
    phase(root_name, t);

    // Untraced batch runs at 1 and 2 workers: the speed-up, the shard
    // spread and the run's own sampled peak.
    let run_one = timed_run(w, 1, tally);
    let run_two = timed_run(w, 2, tally);
    m.push(("engine.state_bytes_peak", run_one.peak_bytes as f64));
    m.push(("core.parallel.speedup_vs_1w", run_two.eps / run_one.eps));
    m.push((
        "core.parallel.shard_imbalance",
        imbalance(&run_two.shard_events),
    ));

    // core.parallel: the 2-worker replay.
    let two_path = w.workers == 2;
    let root_name = if two_path { "path" } else { "probe.parallel" };
    let plain_two = replay_two_workers(w, &mut Tracer::disabled(), root_name);
    tally.pass(&plain_two);
    let mut t = Tracer::at(origin);
    let outcome = replay_two_workers(w, &mut t, root_name);
    tally.pass(&outcome);
    m.push((
        "core.parallel.process_ns_per_event",
        t.total_ns("core.parallel.process") / n,
    ));
    m.push((
        "core.parallel.drain_us_per_call",
        per_call(&t, "core.parallel.drain") / 1e3,
    ));
    if two_path {
        shares = t.shares("path");
    }
    phase(root_name, t);

    // server + loadgen: the open loop at the lag rate, traced.
    let mut t = Tracer::at(origin);
    let open = passes::served(
        w,
        Load::Open(LAG_RATE),
        w.blocks.len(),
        Some((&mut t, "probe.server")),
    );
    tally.pass(&open);
    let s = &open.served;
    m.push(("server.spawn_ms", s.spawn.as_secs_f64() * 1e3));
    if let Some((p50, _, tail)) = stats::summarize(&s.rtt_us) {
        m.push(("server.ingest_rtt_us_p50", p50));
        m.push(("server.ingest_rtt_us_tail", tail));
    }
    m.push(("server.results_pushed", s.pushed as f64));
    m.push(("server.results_received", s.received as f64));
    m.push((
        "loadgen.offered_eps",
        open.events as f64 / s.send_span.as_secs_f64().max(1e-9),
    ));
    m.push((
        "loadgen.late_ms_max",
        s.late_ms.iter().copied().fold(0.0, f64::max),
    ));
    phase("probe.server", t);

    // Tracing overhead: the path's replay untraced over traced; and how
    // closely the untraced replay tracks the workload's own batch call.
    let (overhead, fidelity) = match w.kind {
        Kind::StockCsv | Kind::ChurnMem => {
            let batch = passes::batch(w);
            tally.pass(&batch);
            (
                plain_one.eps() / replay.outcome.eps(),
                batch.eps() / plain_one.eps(),
            )
        }
        Kind::StockSharded => (
            plain_two.eps() / outcome.eps(),
            run_two.eps / plain_two.eps(),
        ),
        Kind::RideshareServed => {
            // The served path itself: closed loop, traced and untraced.
            let plain = passes::served(w, Load::Closed, w.blocks.len(), None);
            let mut t = Tracer::at(origin);
            let traced = passes::served(w, Load::Closed, w.blocks.len(), Some((&mut t, "path")));
            tally.pass(&traced);
            tally.pass(&plain);
            shares = t.shares("path");
            phase("path", t);
            (plain.eps() / traced.eps(), f64::NAN)
        }
    };
    m.push(("trace.overhead_ratio", overhead));
    m.push((
        "trace.unattributed_share",
        shares.get("unattributed").copied().unwrap_or(f64::NAN),
    ));

    let (sustained, rungs) = ladder(w, tally);
    m.push(("loadgen.sustained_eps", sustained));

    m.retain(|(name, v)| {
        let ok = v.is_finite();
        if !ok {
            eprintln!("warning: {name} is not finite");
        }
        ok
    });
    Profile {
        metrics: m,
        shares,
        rungs,
        fidelity,
    }
}

/// What the traced 1-worker replay leaves behind.
struct Replay {
    /// `elapsed` covers the loop and `finish`, not the checkpoint.
    outcome: Outcome,
    key_probes: u64,
    key_allocs: u64,
    end_bytes: usize,
    snapshot_bytes: usize,
}

/// `Session::run` / `run_csv` at 1 worker, step by step: decode (CSV
/// workloads, a group of [`STRIDE`] events at a time), `process`, `drain`
/// after every event and `memory_bytes` every [`MEMORY_CADENCE`] events;
/// then, outside the root span, a checkpoint of the live state and its
/// restore; then `finish`.
fn replay_one_worker(w: &Workload, t: &mut Tracer, root_name: &'static str) -> Replay {
    let n = w.events.len();
    let mut session = w.session(1);
    let mut results: Vec<TaggedResult> = Vec::with_capacity(w.reference.count);
    let start = Instant::now();
    let root = t.open(root_name, None, 0);
    let mut check = Ok(());
    let mut group: Vec<Event> = Vec::with_capacity(STRIDE);
    let mut reader = match w.kind {
        Kind::StockCsv => match EventReader::new(&w.csv, &w.registry) {
            Ok(reader) => Some(reader),
            Err(e) => {
                check = Err(format!("decode: {e}"));
                None
            }
        },
        _ => None,
    };
    for (g, chunk) in w.events.chunks(STRIDE).enumerate() {
        let first = g * STRIDE;
        let block = (first / BLOCK) as u64;
        // stock-csv decodes the group from its CSV text first.
        if let Some(reader) = &mut reader {
            group.clear();
            let decoded = t.time("events.csv.decode", Some(root), block, 1, || {
                for _ in 0..chunk.len() {
                    match reader.next() {
                        Some(Ok(e)) => group.push(e),
                        Some(Err(e)) => return Err(e.to_string()),
                        None => return Err("stream ended early".to_string()),
                    }
                }
                Ok(())
            });
            if let Err(e) = decoded {
                check = Err(format!("decode: {e}"));
                break;
            }
        }
        let mut owned = group.drain(..);
        for (j, e) in chunk.iter().enumerate() {
            let i = first + j;
            let fed = match owned.next() {
                Some(decoded) => Fed::Owned(decoded),
                None => Fed::Ref(e),
            };
            if sampled(i) {
                let start = t.now();
                fed.feed(&mut session);
                let mid = t.now();
                session.drain_into(&mut results);
                let end = t.now();
                let w8 = STRIDE as u32;
                t.record("core.session.process", Some(root), block, w8, start, mid);
                t.record("core.session.drain", Some(root), block, w8, mid, end);
            } else {
                fed.feed(&mut session);
                session.drain_into(&mut results);
            }
            if i.is_multiple_of(MEMORY_CADENCE) {
                let bytes = t.time("core.session.memory_probe", Some(root), block, 1, || {
                    session.memory_bytes()
                });
                std::hint::black_box(bytes);
            }
        }
    }
    t.close(root);
    let mut elapsed = start.elapsed();
    let end_bytes = session.memory_bytes();

    let mut snapshot = Vec::new();
    if let Err(e) = t.time("checkpoint.write", None, 0, 1, || {
        session.checkpoint(&mut snapshot)
    }) {
        check = check.and(Err(format!("checkpoint: {e}")));
    }
    let restored = t.time("checkpoint.restore", None, 0, 1, || {
        Session::builder()
            .workers(1)
            .restore(&w.registry, snapshot.as_slice())
    });
    if let Err(e) = restored {
        check = check.and(Err(format!("restore: {e}")));
    }

    let start = Instant::now();
    let root = t.open(root_name, None, 0);
    t.time(
        "core.session.finish",
        Some(root),
        (n / BLOCK) as u64,
        1,
        || session.finish_into(&mut results),
    );
    t.close(root);
    elapsed += start.elapsed();
    let stats = session.run_stats();
    Replay {
        outcome: checked(w, n, elapsed, results, check),
        key_probes: stats.key_probes,
        key_allocs: stats.key_allocs,
        end_bytes,
        snapshot_bytes: snapshot.len(),
    }
}

/// One event handed to [`Session::process`] (borrowed, like `run`) or
/// [`Session::process_owned`] (decoded, like `run_csv`).
enum Fed<'a> {
    Ref(&'a Event),
    Owned(Event),
}

impl Fed<'_> {
    fn feed(self, session: &mut Session) {
        match self {
            Fed::Ref(e) => session.process(e),
            Fed::Owned(e) => session.process_owned(e),
        }
    }
}

/// `Session::run` at 2 workers, step by step: `process` per event (timed
/// per group of [`STRIDE`]) and a pool drain every [`POOL_DRAIN_CADENCE`]
/// events, then `finish`.
fn replay_two_workers(w: &Workload, t: &mut Tracer, root_name: &'static str) -> Outcome {
    let n = w.events.len();
    let mut session = w.session(2);
    let mut results: Vec<TaggedResult> = Vec::with_capacity(w.reference.count);
    let start = Instant::now();
    let root = t.open(root_name, None, 0);
    for (g, chunk) in w.events.chunks(STRIDE).enumerate() {
        let first = g * STRIDE;
        let block = (first / BLOCK) as u64;
        t.time("core.parallel.process", Some(root), block, 1, || {
            for e in chunk {
                session.process(e);
            }
        });
        // The drain cadence is a multiple of the group size.
        if (first + STRIDE).is_multiple_of(POOL_DRAIN_CADENCE) {
            t.time("core.parallel.drain", Some(root), block, 1, || {
                session.drain_into(&mut results)
            });
        }
    }
    t.time(
        "core.parallel.finish",
        Some(root),
        (n / BLOCK) as u64,
        1,
        || session.finish_into(&mut results),
    );
    t.close(root);
    checked(w, n, start.elapsed(), results, Ok(()))
}

fn checked(
    w: &Workload,
    n: usize,
    elapsed: Duration,
    results: Vec<TaggedResult>,
    check: Result<(), String>,
) -> Outcome {
    let results: Vec<WindowResult> = results.into_iter().map(|r| r.result).collect();
    Outcome {
        events: n,
        elapsed,
        check: check.and_then(|()| w.reference.check(&results)),
        ..Outcome::default()
    }
}

/// Timed per-event calls: one in [`STRIDE`], offset from the memory
/// cadence so the two never share an event.
fn sampled(i: usize) -> bool {
    i % STRIDE == STRIDE / 2
}

struct TimedRun {
    eps: f64,
    peak_bytes: usize,
    shard_events: Vec<u64>,
}

/// Untraced `Session::run` of the stream at `workers`, checked.
fn timed_run(w: &Workload, workers: usize, tally: &mut Tally) -> TimedRun {
    let session = w.session(workers);
    let start = Instant::now();
    let run = session.run(&w.events);
    let elapsed = start.elapsed();
    let outcome = Outcome {
        events: w.events.len(),
        elapsed,
        check: w.reference.check(run.results()),
        ..Outcome::default()
    };
    tally.pass(&outcome);
    TimedRun {
        eps: outcome.eps(),
        peak_bytes: run.peak_bytes,
        shard_events: run.shard_events,
    }
}

/// Largest over mean of the busy shards' event counts.
fn imbalance(shards: &[u64]) -> f64 {
    let busy: Vec<f64> = shards
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| c as f64)
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    busy.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
}

fn per_call(t: &Tracer, name: &str) -> f64 {
    t.total_ns(name) / t.calls(name).max(1.0)
}

fn median_ns(t: &Tracer, name: &str) -> f64 {
    let durations: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    stats::median(&durations).unwrap_or(f64::NAN)
}

/// The highest ladder rate whose lag tail stays within the limit while
/// the generator's lateness does not grow; climbing stops at the first
/// rung that fails. Returns the rate and every rung's observations.
fn ladder(w: &Workload, tally: &mut Tally) -> (f64, Json) {
    let mut sustained = 0.0;
    let mut rungs = Vec::new();
    for rate in LADDER {
        let events = (rate * RUNG.as_secs_f64()) as usize;
        let blocks = events.div_ceil(BLOCK).clamp(4, w.blocks.len());
        let o = passes::served(w, Load::Open(rate), blocks, None);
        tally.pass(&o);
        let tail = stats::percentile(&o.lag_ms, stats::tail_percentile(o.lag_windows))
            .unwrap_or(f64::INFINITY);
        let growth = lateness_growth(&o.served.late_ms);
        let ok = o.check.is_ok() && tail <= LAG_LIMIT_MS && growth <= 1.0;
        rungs.push(Json::obj([
            ("rate", Json::Num(rate)),
            (
                "offered_eps",
                Json::Num(o.events as f64 / o.served.send_span.as_secs_f64().max(1e-9)),
            ),
            (
                "late_ms_max",
                Json::Num(o.served.late_ms.iter().copied().fold(0.0, f64::max)),
            ),
            ("late_growth_ms", Json::Num(growth)),
            ("lag_tail_ms", Json::Num(tail)),
            ("lag_samples", Json::Int(o.lag_ms.len() as u64)),
            ("ok", Json::Bool(ok)),
        ]));
        if !ok {
            break;
        }
        sustained = rate;
    }
    (sustained, Json::Arr(rungs))
}

/// Mean lateness of the last quarter of blocks minus that of the first
/// quarter, in ms: positive and large when the feeder fell behind.
fn lateness_growth(late_ms: &[f64]) -> f64 {
    let q = (late_ms.len() / 4).max(1);
    if late_ms.len() < 2 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    mean(&late_ms[late_ms.len() - q..]) - mean(&late_ms[..q])
}

fn write_trace(
    kind: Kind,
    seed: u64,
    rep: usize,
    phases: &[(&'static str, Tracer)],
) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{seed}-{rep}.tsv", kind.name()));
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (phase, t) in phases {
        use std::io::Write;
        writeln!(out, "# phase {phase}")?;
        t.write_tsv(&mut out)?;
    }
    use std::io::Write;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_growth_flags_a_falling_behind_feeder() {
        assert_eq!(lateness_growth(&[]), 0.0);
        assert_eq!(lateness_growth(&[0.1, 0.2, 0.1, 0.2]), 0.1);
        let behind: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(lateness_growth(&behind) > 50.0);
    }

    #[test]
    fn imbalance_is_max_over_mean_of_busy_shards() {
        assert_eq!(imbalance(&[10, 30]), 1.5);
        assert_eq!(imbalance(&[20, 0]), 1.0);
        assert_eq!(imbalance(&[]), 0.0);
    }

    #[test]
    fn sampling_never_coincides_with_the_memory_cadence() {
        assert!((0..10_000)
            .filter(|&i| sampled(i))
            .all(|i| i % MEMORY_CADENCE != 0));
        assert_eq!((0..STRIDE * 100).filter(|&i| sampled(i)).count(), 100);
    }
}
