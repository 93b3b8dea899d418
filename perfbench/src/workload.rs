//! The four workloads: seeded inputs, the session each one runs, and the
//! untimed reference result every timed run is checked against.

use cogra_baselines::{greta_engine, sase_engine};
use cogra_core::session::{Session, SessionBuilder};
use cogra_core::{run_to_completion, TrendEngine, WindowResult};
use cogra_events::{write_events, Event, TypeRegistry, WindowSpec};
use cogra_workloads::{churn, rideshare, stock, ChurnConfig, RideshareConfig, StockConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Rows per block: one `INGEST` block on the served path, one
/// `ingest_csv` document or one drain interval on the lag passes.
pub const BLOCK: usize = 1_000;

/// Window of every workload's query, in ticks (one event per tick).
pub const WITHIN: u64 = 1_000;
/// Slide of every workload's query.
pub const SLIDE: u64 = 500;

/// Disorder bound of the served stream, and its session's `.slack(n)`.
pub const SERVED_SLACK: u64 = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Stock CSV text through `Session::run_csv` at 1 worker.
    StockCsv,
    /// Churn events through `Session::run` at 1 worker.
    ChurnMem,
    /// Stock events through `Session::run` at 2 workers.
    StockSharded,
    /// Disordered rideshare CSV served by `Server::spawn`.
    RideshareServed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::StockCsv,
        Kind::ChurnMem,
        Kind::StockSharded,
        Kind::RideshareServed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StockCsv => "stock-csv",
            Kind::ChurnMem => "churn-mem",
            Kind::StockSharded => "stock-sharded",
            Kind::RideshareServed => "rideshare-served",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Events per run.
    pub fn size(self) -> usize {
        match self {
            Kind::ChurnMem => 100_000,
            _ => 200_000,
        }
    }
}

/// One workload's generated inputs and reference.
pub struct Workload {
    pub kind: Kind,
    pub registry: TypeRegistry,
    pub query: String,
    pub workers: usize,
    pub slack: u64,
    pub window: WindowSpec,
    /// The stream in arrival order (time order except on the served path).
    pub events: Vec<Event>,
    /// `events` as one CSV document.
    pub csv: String,
    /// `events` cut into CSV documents of [`BLOCK`] rows (header first).
    pub blocks: Vec<String>,
    /// Largest event time seen up to the end of each block.
    pub block_max: Vec<u64>,
    pub reference: Reference,
}

impl Workload {
    /// Generate every input of `kind` from `seed`, and the reference.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        Workload::generate_sized(kind, seed, kind.size())
    }

    /// [`Workload::generate`] with `n` events instead of the run size.
    pub fn generate_sized(kind: Kind, seed: u64, n: usize) -> Workload {
        Workload::build(kind, seed, n, true)
    }

    /// The inputs of [`Workload::generate_sized`] without the reference
    /// run; every check against its empty reference fails.
    pub fn unchecked(kind: Kind, seed: u64, n: usize) -> Workload {
        Workload::build(kind, seed, n, false)
    }

    fn build(kind: Kind, seed: u64, n: usize, reference: bool) -> Workload {
        let (registry, query, ordered, workers, slack) = match kind {
            Kind::StockCsv | Kind::StockSharded => (
                stock::registry(),
                stock::q3_query_no_adjacent(WITHIN, SLIDE),
                stock::generate(&StockConfig {
                    events: n,
                    seed,
                    ..Default::default()
                }),
                if kind == Kind::StockSharded { 2 } else { 1 },
                0,
            ),
            Kind::ChurnMem => (
                churn::registry(),
                churn::count_query(WITHIN, SLIDE),
                churn::generate(&ChurnConfig {
                    events: n,
                    seed,
                    ..Default::default()
                }),
                1,
                0,
            ),
            Kind::RideshareServed => (
                rideshare::registry(),
                rideshare::q2_query(WITHIN, SLIDE),
                rideshare::generate(&RideshareConfig {
                    events: n,
                    seed,
                    ..Default::default()
                }),
                1,
                SERVED_SLACK,
            ),
        };
        let reference = if reference {
            Reference::compute(kind, &query, &registry, &ordered)
        } else {
            Reference {
                engine: "none",
                count: 0,
                digest: 0,
                rows: Vec::new(),
            }
        };
        let events = if slack > 0 {
            disorder(ordered, slack, seed)
        } else {
            ordered
        };
        let csv = write_events(&events, &registry);
        let blocks = events
            .chunks(BLOCK)
            .map(|chunk| write_events(chunk, &registry))
            .collect();
        let block_max = events
            .chunks(BLOCK)
            .scan(0u64, |max, chunk| {
                *max = chunk.iter().fold(*max, |m, e| m.max(e.time.ticks()));
                Some(*max)
            })
            .collect();
        Workload {
            kind,
            registry,
            query,
            workers,
            slack,
            window: WindowSpec::new(WITHIN, SLIDE),
            events,
            csv,
            blocks,
            block_max,
            reference,
        }
    }

    /// The session builder of this workload (query, workers, slack).
    pub fn builder(&self) -> SessionBuilder {
        self.builder_with(self.workers)
    }

    /// [`Workload::builder`] at another worker count.
    pub fn builder_with(&self, workers: usize) -> SessionBuilder {
        let b = Session::builder()
            .query(self.query.as_str())
            .workers(workers);
        if self.slack > 0 {
            b.slack(self.slack)
        } else {
            b
        }
    }

    /// Build the session at `workers`.
    pub fn session(&self, workers: usize) -> Session {
        self.builder_with(workers)
            .build(&self.registry)
            .expect("benchmark queries build")
    }
}

/// Delay every event by a seeded `0..slack` ticks of arrival time: an
/// event arrives after every event of an earlier arrival stamp, so the
/// largest time seen before it is below its own time + `slack`, and a
/// session with `.slack(slack)` drops nothing as late.
pub fn disorder(mut events: Vec<Event>, slack: u64, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_D150_4DE4);
    let mut keyed: Vec<(u64, Event)> = events
        .drain(..)
        .map(|e| (e.time.ticks() + rng.random_range(0..slack), e))
        .collect();
    keyed.sort_by_key(|(arrival, e)| (*arrival, e.time));
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// Results of an independent engine over the time-ordered stream: GRETA
/// for the skip-till-any-match queries, SASE for skip-till-next-match.
pub struct Reference {
    pub engine: &'static str,
    pub count: usize,
    pub digest: u64,
    /// Every result as its `RESULT` row text, sorted.
    pub rows: Vec<String>,
}

impl Reference {
    fn compute(kind: Kind, query: &str, registry: &TypeRegistry, ordered: &[Event]) -> Reference {
        let parsed = cogra_query::parse(query).expect("benchmark queries parse");
        let mut engine: Box<dyn TrendEngine> = match kind {
            Kind::RideshareServed => {
                Box::new(sase_engine(&parsed, registry).expect("SASE runs q2"))
            }
            _ => Box::new(greta_engine(&parsed, registry).expect("GRETA runs ANY queries")),
        };
        let (results, _) = run_to_completion(engine.as_mut(), ordered, usize::MAX);
        Reference {
            engine: engine.name(),
            count: results.len(),
            digest: cogra_bench::harness::digest(&results),
            rows: sorted_rows(results.iter().map(|r| r.to_string())),
        }
    }

    /// Whether `results` (any order) equal the reference, by count and
    /// order-insensitive digest.
    pub fn check(&self, results: &[WindowResult]) -> Result<(), String> {
        let digest = cogra_bench::harness::digest(results);
        if results.len() != self.count || digest != self.digest {
            return Err(format!(
                "{} results (digest {digest:016x}), {} has {} (digest {:016x})",
                results.len(),
                self.engine,
                self.count,
                self.digest
            ));
        }
        Ok(())
    }

    /// Whether pushed `RESULT` rows (any order) equal the reference rows.
    pub fn check_rows(&self, rows: impl IntoIterator<Item = String>) -> Result<(), String> {
        let rows = sorted_rows(rows);
        if rows != self.rows {
            let first = rows.iter().zip(&self.rows).position(|(a, b)| a != b);
            return Err(format!(
                "{} rows, {} has {}; first difference at sorted row {first:?}",
                rows.len(),
                self.engine,
                self.rows.len()
            ));
        }
        Ok(())
    }
}

fn sorted_rows(rows: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut rows: Vec<String> = rows.into_iter().collect();
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_core::AggValue;
    use cogra_events::{Value, WindowId};

    fn result(window: u64, group: i64, count: u64) -> WindowResult {
        WindowResult {
            window: WindowId(window),
            group: vec![Value::Int(group)],
            values: vec![AggValue::Count(count)],
        }
    }

    fn reference(results: &[WindowResult]) -> Reference {
        Reference {
            engine: "test",
            count: results.len(),
            digest: cogra_bench::harness::digest(results),
            rows: sorted_rows(results.iter().map(|r| r.to_string())),
        }
    }

    #[test]
    fn digest_comparison_ignores_order_and_catches_changes() {
        let expected = [result(0, 1, 3), result(0, 2, 4), result(1, 1, 5)];
        let r = reference(&expected);
        let mut shuffled = expected.to_vec();
        shuffled.reverse();
        assert!(r.check(&shuffled).is_ok());
        assert!(r.check(&expected[..2]).is_err(), "a lost result is caught");
        let mut changed = expected.to_vec();
        changed[2] = result(1, 1, 6);
        assert!(r.check(&changed).is_err(), "a changed value is caught");
        let mut duplicated = expected.to_vec();
        duplicated[1] = result(0, 1, 3);
        assert!(r.check(&duplicated).is_err(), "a duplicate is caught");
    }

    #[test]
    fn row_comparison_ignores_order_and_catches_changes() {
        let expected = [result(0, 1, 3), result(1, 2, 4)];
        let r = reference(&expected);
        let rows = |rs: &[WindowResult]| rs.iter().rev().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(r.check_rows(rows(&expected)).is_ok());
        assert!(r.check_rows(rows(&expected[..1])).is_err());
        assert!(r
            .check_rows(rows(&[result(0, 1, 3), result(1, 2, 5)]))
            .is_err());
    }

    #[test]
    fn disorder_stays_within_slack() {
        let ordered = rideshare::generate(&RideshareConfig {
            events: 5_000,
            seed: 3,
            ..Default::default()
        });
        let arrived = disorder(ordered.clone(), SERVED_SLACK, 3);
        assert_eq!(arrived.len(), ordered.len());
        assert_ne!(arrived, ordered, "the stream is actually disordered");
        let mut max = 0;
        for e in &arrived {
            assert!(
                max < e.time.ticks() + SERVED_SLACK,
                "an event arrives too late"
            );
            max = max.max(e.time.ticks());
        }
        assert_eq!(arrived, disorder(ordered, SERVED_SLACK, 3), "seeded");
    }

    #[test]
    fn every_workload_matches_its_reference_in_process() {
        for kind in Kind::ALL {
            let w = Workload::generate_sized(kind, 11, 20_000);
            let run = w.session(w.workers).run(&w.events);
            assert_eq!(run.late_events, 0, "{}", kind.name());
            w.reference
                .check(run.results())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }
}
