//! Result lag: which input block closed a window, and how long after that
//! block was due its result reached the consumer.

use cogra_events::{WindowId, WindowSpec};
use std::collections::BTreeSet;
use std::time::Instant;

/// The block holding window `window`'s closing event — the first event
/// with time ≥ window end + `slack` — given the largest event time seen
/// up to the end of each block (`block_max`, non-decreasing). `None` when
/// no block reaches it: only the end of the stream closes that window.
pub fn closing_block(
    block_max: &[u64],
    spec: &WindowSpec,
    window: WindowId,
    slack: u64,
) -> Option<usize> {
    let need = spec.window_end(window).ticks() + slack;
    let b = block_max.partition_point(|&max| max < need);
    (b < block_max.len()).then_some(b)
}

/// The window id of a `RESULT` row (`w<id> [group] → values`).
pub fn window_of_row(row: &str) -> Option<WindowId> {
    let id = row.strip_prefix('w')?.split(' ').next()?;
    id.parse().ok().map(WindowId)
}

/// Lag samples of one pass, in milliseconds: one per result. A window's
/// results leave in one drain and arrive together, so the window, not the
/// result, is the unit the tail-percentile rule counts (`windows`).
pub struct LagRecorder<'a> {
    block_max: &'a [u64],
    spec: WindowSpec,
    slack: u64,
    /// When each block was due (open loop) or handed over (closed loop).
    pub due: Vec<Instant>,
    samples_ms: Vec<f64>,
    windows: BTreeSet<u64>,
}

impl<'a> LagRecorder<'a> {
    pub fn new(block_max: &'a [u64], spec: WindowSpec, slack: u64) -> LagRecorder<'a> {
        LagRecorder {
            block_max,
            spec,
            slack,
            due: Vec::with_capacity(block_max.len()),
            samples_ms: Vec::new(),
            windows: BTreeSet::new(),
        }
    }

    /// Record a result of `window` received at `at`. Results that only
    /// the end of the stream closes, or whose closing block was never
    /// sent, carry no lag sample.
    pub fn record(&mut self, window: WindowId, at: Instant) {
        let closing = closing_block(self.block_max, &self.spec, window, self.slack);
        if let Some(&due) = closing.and_then(|b| self.due.get(b)) {
            self.samples_ms
                .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            self.windows.insert(window.0);
        }
    }

    /// `(samples, distinct windows they came from)`.
    pub fn finish(self) -> (Vec<f64>, usize) {
        (self.samples_ms, self.windows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Workload, BLOCK};

    #[test]
    fn closing_block_is_the_first_block_reaching_end_plus_slack() {
        let spec = WindowSpec::new(10, 5);
        // Window 0 covers [0, 10), window 1 [5, 15), window 2 [10, 20).
        let block_max = [4, 9, 12, 13, 30];
        assert_eq!(closing_block(&block_max, &spec, WindowId(0), 0), Some(2));
        assert_eq!(closing_block(&block_max, &spec, WindowId(0), 3), Some(3));
        assert_eq!(closing_block(&block_max, &spec, WindowId(0), 4), Some(4));
        assert_eq!(closing_block(&block_max, &spec, WindowId(1), 0), Some(4));
        assert_eq!(closing_block(&block_max, &spec, WindowId(5), 0), None);
    }

    #[test]
    fn window_ids_parse_from_result_rows() {
        assert_eq!(window_of_row("w0 [7] → 9 60.0000"), Some(WindowId(0)));
        assert_eq!(window_of_row("w123 [1, 2] → 4"), Some(WindowId(123)));
        assert_eq!(window_of_row("x1 [1] → 4"), None);
        assert_eq!(window_of_row("w [1] → 4"), None);
    }

    /// Feeding a session block by block, every result drained right
    /// after a block must be attributed to exactly that block — for the
    /// disordered served stream under slack and the ordered streams.
    #[test]
    fn results_drain_after_their_closing_block() {
        for kind in [Kind::RideshareServed, Kind::StockCsv, Kind::ChurnMem] {
            let w = Workload::generate_sized(kind, 5, 20 * BLOCK);
            let mut session = w.session(1);
            let mut attributed = 0;
            for (b, chunk) in w.events.chunks(BLOCK).enumerate() {
                for e in chunk {
                    session.process(e);
                }
                for r in session.drain() {
                    let closing = closing_block(&w.block_max, &w.window, r.result.window, w.slack);
                    assert_eq!(closing, Some(b), "{}: {}", kind.name(), r.result);
                    attributed += 1;
                }
            }
            for r in session.finish() {
                let closing = closing_block(&w.block_max, &w.window, r.result.window, w.slack);
                assert_eq!(
                    closing,
                    None,
                    "{}: {} closed by no block",
                    kind.name(),
                    r.result
                );
            }
            assert!(attributed > 0, "{}", kind.name());
        }
    }
}
