//! `perfbench` — end-to-end and per-layer benchmark of the cogra
//! workspace. See `README.md` next to this crate for the workloads and
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stock-csv|churn-mem|stock-sharded|rideshare-served|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics. Every run checks each result set against an independent
//! engine. Human-readable lines go to stderr; stdout ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`.

mod json;
mod lag;
mod mem;
mod passes;
mod profile;
mod stats;
mod trace;
mod workload;

use json::Json;
use passes::{Load, Outcome, LAG_RATE};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// End-to-end metrics, reported by every workload with `--trace 0`. The
/// lag tail goes to the meta line only: on the served path it moves
/// with host contention by more than any bound a regression check could
/// use (see README.md).
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_eps", "1/s"),
    ("lag_p50_ms", "ms"),
    ("mem_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Session or server set-ups timed after each pair of passes; `setup_s`
/// is the median of all of them.
const SETUPS_PER_PASS: usize = 5;
/// Percentile of the per-pass throughputs that `throughput_eps` reports;
/// `lag_p50_ms` takes the mirror percentile of the per-pass median lags.
const SLOW_DECILE: f64 = 10.0;
/// Fresh processes whose peak memory growth `mem_peak_mb` takes the median of.
const MEM_RUNS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <stock-csv|churn-mem|stock-sharded|rideshare-served|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: measure one batch pass's peak memory in this process.
    mem_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mem_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--mem-child" => args.mem_child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Operations attempted and failed, with the first failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one pass and its `INGEST` blocks.
    pub fn pass(&mut self, o: &Outcome) {
        self.attempted += 1 + o.blocks;
        self.failed += o.blocks_failed;
        if let Err(e) = &o.check {
            self.fail(e.clone());
        }
    }

    /// Count one operation; its value if it succeeded.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(e)).ok()
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("FAILED: {why}");
        self.first_error.get_or_insert(why);
    }
}

/// One run's result: metrics by name, in the declared order.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    pub meta: Vec<(String, Json)>,
}

impl Report {
    fn render(&self) -> String {
        let correct = self.tally.failed == 0 && self.metrics.iter().all(|(_, _, v)| v.is_some());
        let metrics = self.metrics.iter().map(|(name, unit, v)| {
            let value = v.map_or(Json::Num(0.0), Json::Num);
            (
                *name,
                Json::obj([("value", value), ("unit", Json::Str(unit.to_string()))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.tally.attempted.max(1))),
            ("failed", Json::Int(self.tally.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    fn print_table(&self, workload: &str) {
        for (name, unit, v) in &self.metrics {
            match v {
                Some(v) => eprintln!("{workload:>17} {name:<36} {v:>16.4} {unit}"),
                None => eprintln!("{workload:>17} {name:<36} {:>16} {unit}", "missing"),
            }
        }
        eprintln!(
            "{workload:>17} checks: {} attempted, {} failed{}",
            self.tally.attempted,
            self.tally.failed,
            self.tally
                .first_error
                .as_deref()
                .map(|e| format!(" (first: {e})"))
                .unwrap_or_default()
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kinds: Vec<Kind> = match (args.workload.as_str(), Kind::parse(&args.workload)) {
        (_, Some(kind)) => vec![kind],
        ("all", None) if !args.mem_child => Kind::ALL.to_vec(),
        (other, None) => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.mem_child {
        return mem_child(kinds[0], args.seed);
    }
    let mut all_correct = true;
    for kind in kinds {
        let report = run(kind, &args);
        report.print_table(kind.name());
        all_correct &= report.tally.failed == 0;
        let meta = Json::obj([("meta", Json::Obj(report.meta.clone()))]);
        println!("{}", meta.render());
        println!("{}", report.render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else if args.workload == "all" {
        ExitCode::FAILURE
    } else {
        // A single-workload run reports failures in its result line.
        ExitCode::SUCCESS
    }
}

fn run(kind: Kind, args: &Args) -> Report {
    let started = Instant::now();
    let w = Workload::generate(kind, args.seed);
    let generated = started.elapsed();
    let mut report = if args.trace {
        profile::run(&w, args.seed, args.seconds)
    } else {
        timed(&w, args.seed, args.seconds)
    };
    let mut meta = vec![
        ("workload".to_string(), Json::Str(kind.name().into())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host_cpus".to_string(), Json::Int(host_cpus())),
        ("git_rev".to_string(), Json::Str(git_rev())),
        ("events".to_string(), Json::Int(w.events.len() as u64)),
        ("csv_bytes".to_string(), Json::Int(w.csv.len() as u64)),
        ("blocks".to_string(), Json::Int(w.blocks.len() as u64)),
        ("block_rows".to_string(), Json::Int(workload::BLOCK as u64)),
        ("workers".to_string(), Json::Int(w.workers as u64)),
        ("slack".to_string(), Json::Int(w.slack)),
        (
            "reference_engine".to_string(),
            Json::Str(w.reference.engine.into()),
        ),
        (
            "reference_results".to_string(),
            Json::Int(w.reference.count as u64),
        ),
        ("generate_s".to_string(), Json::Num(generated.as_secs_f64())),
    ];
    meta.append(&mut report.meta);
    meta.push((
        "wall_s".to_string(),
        Json::Num(started.elapsed().as_secs_f64()),
    ));
    report.meta = meta;
    report
}

/// The `--trace 0` run: batch passes, lag passes and set-ups in turn
/// until `seconds` have passed, then peak memory in fresh processes.
///
/// The host's speed drifts between regimes up to 2x apart that last
/// seconds to minutes, so a median or mean over a run's passes moves
/// with whichever regime held most of the run. The slow regime recurs in
/// nearly every run at nearly the same speed, so the run reports the
/// slow decile of its passes: `throughput_eps` is the 10th percentile of
/// per-pass throughput, and `lag_p50_ms` the 90th percentile of per-pass
/// median lag — the rate and lag that 9 of 10 passes did at least as
/// well as. The lag tail and quantiles in the meta line pool every
/// sample of the run.
fn timed(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass_eps = Vec::new();
    let (mut lag_ms, mut lag_windows, mut lag_p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_s = Vec::new();
    loop {
        let batch = match w.kind {
            Kind::RideshareServed => passes::served(w, Load::Closed, w.blocks.len(), None),
            _ => passes::batch(w),
        };
        tally.pass(&batch);
        if batch.check.is_ok() {
            pass_eps.push(batch.eps());
        }
        let mut lagged = match w.kind {
            Kind::RideshareServed => passes::served(w, Load::Open(LAG_RATE), w.blocks.len(), None),
            _ => passes::streamed(w),
        };
        tally.pass(&lagged);
        if lagged.check.is_ok() {
            if let Some(p50) = stats::median(&lagged.lag_ms) {
                lag_p50.push(p50);
            }
            lag_windows.push(lagged.lag_windows);
            lag_ms.append(&mut lagged.lag_ms);
        }
        for _ in 0..SETUPS_PER_PASS {
            if let Some(secs) = tally.op(setup_once(w)) {
                setup_s.push(secs);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut mem_mb = Vec::new();
    for _ in 0..MEM_RUNS {
        if let Some(bytes) =
            tally.op(spawn_mem_child(w.kind, seed).map_err(|e| format!("memory probe: {e}")))
        {
            mem_mb.push(bytes as f64 / 1e6);
        }
    }

    // The tail percentile follows the windows of one pass — a window's
    // results share one lag — so it does not change with how many passes
    // fit in the run.
    let tail_pct = stats::tail_percentile(lag_windows.iter().copied().min().unwrap_or(0));
    let meta = vec![
        ("passes".to_string(), Json::Int(pass_eps.len() as u64)),
        (
            "throughput_per_pass".to_string(),
            Json::Arr(pass_eps.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "lag_p50_per_pass".to_string(),
            Json::Arr(lag_p50.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("lag_samples".to_string(), Json::Int(lag_ms.len() as u64)),
        (
            "lag_windows_per_pass".to_string(),
            Json::Arr(lag_windows.iter().map(|&n| Json::Int(n as u64)).collect()),
        ),
        ("lag_tail_percentile".to_string(), Json::Num(tail_pct)),
        (
            "lag_tail_ms".to_string(),
            stats::percentile(&lag_ms, tail_pct).map_or(Json::Num(f64::NAN), Json::Num),
        ),
        (
            "lag_quantiles_ms".to_string(),
            Json::obj([50.0, 75.0, 90.0, 95.0, 99.0, 99.9].map(|p| {
                (
                    format!("p{p}"),
                    stats::percentile(&lag_ms, p).map_or(Json::Num(f64::NAN), Json::Num),
                )
            })),
        ),
        ("lag_load".to_string(), Json::Str(lag_load(w.kind))),
        (
            "mem_samples_mb".to_string(),
            Json::Arr(mem_mb.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("setup_samples".to_string(), Json::Int(setup_s.len() as u64)),
    ];
    let values = [
        stats::percentile(&pass_eps, SLOW_DECILE),
        stats::percentile(&lag_p50, 100.0 - SLOW_DECILE),
        stats::median(&mem_mb),
        stats::median(&setup_s),
    ];
    Report {
        tally,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        meta,
    }
}

fn lag_load(kind: Kind) -> String {
    match kind {
        Kind::RideshareServed => format!("open loop, {LAG_RATE} ev/s, INGEST blocks"),
        Kind::StockCsv => "closed loop, ingest_csv blocks".into(),
        _ => "closed loop, process blocks".into(),
    }
}

/// Seconds to build the workload's session from its query — for the
/// served workload, to spawn the server and connect a subscriber.
fn setup_once(w: &Workload) -> Result<f64, String> {
    let start = Instant::now();
    if w.kind != Kind::RideshareServed {
        let session = w
            .builder()
            .build(&w.registry)
            .map_err(|e| format!("session build: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        drop(session);
        return Ok(secs);
    }
    let server = cogra_server::Server::spawn(
        w.builder(),
        w.registry.clone(),
        "127.0.0.1:0",
        cogra_server::ServerConfig::default(),
    )
    .map_err(|e| format!("server spawn: {e}"))?;
    let subscribed = cogra_server::Client::connect(server.local_addr()).map(|c| c.subscribe(None));
    let secs = start.elapsed().as_secs_f64();
    let ok = matches!(subscribed, Ok(Ok(_)));
    drop(subscribed);
    server.shutdown();
    if ok {
        Ok(secs)
    } else {
        Err("subscriber connect failed".into())
    }
}

/// Run this executable as a fresh process measuring one batch pass.
fn spawn_mem_child(kind: Kind, seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--mem-child",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_growth_bytes="))
        .and_then(|v| v.trim().parse().ok());
    match (out.status.success(), parsed) {
        (true, Some(bytes)) => Ok(bytes),
        _ => Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Child side of [`spawn_mem_child`]: peak resident growth of one batch
/// pass (input generation and set-up excluded), printed as
/// `peak_growth_bytes=<n>`.
fn mem_child(kind: Kind, seed: u64) -> ExitCode {
    let pass = |w: &Workload| match kind {
        Kind::RideshareServed => passes::served(w, Load::Closed, w.blocks.len(), None),
        _ => passes::batch(w),
    };
    // A short warm-up pass first, so the code and the allocator's arenas
    // the pass needs are resident before the measurement starts. The
    // parent checks results; this process skips the reference run.
    pass(&Workload::unchecked(kind, seed, 2 * workload::BLOCK));
    let w = Workload::unchecked(kind, seed, kind.size());
    match mem::peak_growth(|| pass(&w)) {
        Ok((_, bytes)) => {
            println!("peak_growth_bytes={bytes}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: reading /proc/self: {e}");
            ExitCode::FAILURE
        }
    }
}

fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
