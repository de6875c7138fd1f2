//! Folds the runs of a `PGA_TRACE` JSONL file into per-phase layer
//! figures.
//!
//! One pipeline call writes one trace run per simulator execution, in
//! run order; the caller names them (`prep`, `phase1`, `phase2`,
//! `thm28`). Each run folds to a [`PhaseFold`]: its counts, its wall time
//! split into the round bodies and the loop around them, and — on
//! sharded runs only — the round time split into the slowest shard's
//! step, the exchange, and the fork/join residual.

use pga_bench::trace::TraceRun;

/// The sharded split of a run's round time. Absent on single-shard runs,
/// which emit no shard rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardSplit {
    /// Σ over rounds of the slowest shard's step time, ns.
    pub step_ns: u64,
    /// Σ over rounds of the exchange time, ns.
    pub exchange_ns: u64,
    /// Σ over rounds of `round − slowest shard − exchange`, ns: thread
    /// fork/join and driving-thread overhead.
    pub sync_ns: u64,
    /// Mean over rounds of the per-round shard imbalance (`max/mean − 1`).
    pub imbalance: f64,
}

/// One simulator run, folded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseFold {
    /// Rounds the run executed (its `run_end` record).
    pub rounds: u64,
    /// Messages charged over all rounds.
    pub messages: u64,
    /// Charged volume over all rounds (bits, for CONGEST runs).
    pub bits: u64,
    /// Whole-run wall time, ns.
    pub wall_ns: u64,
    /// Σ of the round wall times, ns.
    pub round_ns: u64,
    /// The longest round, ns.
    pub peak_round_ns: u64,
    /// Stepped actors over `rounds × actors`.
    pub active_frac: f64,
    /// Present when the run was sharded.
    pub shards: Option<ShardSplit>,
}

impl PhaseFold {
    /// Wall time outside the round bodies: set-up, teardown and the
    /// termination checks of the run loop, ns.
    pub fn loop_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.round_ns)
    }
}

/// `round − slowest shard − exchange` of one sharded round, ns.
pub fn sync_residual(round: &pga_bench::trace::TraceRound) -> u64 {
    let slowest = round.shards.iter().map(|s| s.wall_ns).max().unwrap_or(0);
    round
        .wall_ns
        .saturating_sub(slowest)
        .saturating_sub(round.exchange_ns)
}

/// Folds one trace run.
///
/// # Errors
///
/// A run that aborted (no `run_end` record) cannot be folded.
pub fn fold_run(run: &TraceRun) -> Result<PhaseFold, String> {
    let (rounds, wall_ns) = run
        .end
        .ok_or_else(|| format!("{} run has no run_end record", run.label))?;
    let stepped: u64 = run.rounds.iter().map(|r| r.active).sum();
    let slots = run.rounds.len() as u64 * run.actors;
    let sharded: Vec<_> = run.rounds.iter().filter(|r| !r.shards.is_empty()).collect();
    let shards = (!sharded.is_empty()).then(|| ShardSplit {
        step_ns: sharded
            .iter()
            .map(|r| r.shards.iter().map(|s| s.wall_ns).max().unwrap_or(0))
            .sum(),
        exchange_ns: sharded.iter().map(|r| r.exchange_ns).sum(),
        sync_ns: sharded.iter().map(|r| sync_residual(r)).sum(),
        imbalance: sharded.iter().map(|r| r.shard_imbalance()).sum::<f64>() / sharded.len() as f64,
    });
    Ok(PhaseFold {
        rounds,
        messages: run.rounds.iter().map(|r| r.messages).sum(),
        bits: run.rounds.iter().map(|r| r.volume).sum(),
        wall_ns,
        round_ns: run.rounds.iter().map(|r| r.wall_ns).sum(),
        peak_round_ns: run.rounds.iter().map(|r| r.wall_ns).max().unwrap_or(0),
        active_frac: if slots == 0 {
            0.0
        } else {
            stepped as f64 / slots as f64
        },
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_bench::trace::parse_trace;

    // Two runs: a sequential one (no shard rows) and a 2-shard one.
    const SAMPLE: &str = concat!(
        "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":4,\"shards\":1,\"bounds\":[0,4]}\n",
        "{\"event\":\"round\",\"round\":0,\"wall_ns\":300,\"messages\":4,\"volume\":40,\
         \"peak_link\":10,\"active\":4,\"exchange_ns\":50,\"delay_depth\":0}\n",
        "{\"event\":\"round\",\"round\":1,\"wall_ns\":100,\"messages\":1,\"volume\":10,\
         \"peak_link\":10,\"active\":2,\"exchange_ns\":20,\"delay_depth\":0}\n",
        "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":1000}\n",
        "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":4,\"shards\":2,\"bounds\":[0,2,4]}\n",
        "{\"event\":\"round\",\"round\":0,\"wall_ns\":1000,\"messages\":6,\"volume\":60,\
         \"peak_link\":10,\"active\":4,\"exchange_ns\":200,\"delay_depth\":0,\
         \"shards\":[{\"shard\":0,\"wall_ns\":600,\"messages\":3,\"volume\":30},\
         {\"shard\":1,\"wall_ns\":200,\"messages\":3,\"volume\":30}]}\n",
        "{\"event\":\"run_end\",\"rounds\":1,\"wall_ns\":1500}\n",
    );

    #[test]
    fn folds_counts_and_walls() {
        let runs = parse_trace(SAMPLE).unwrap();
        let seq = fold_run(&runs[0]).unwrap();
        assert_eq!((seq.rounds, seq.messages, seq.bits), (2, 5, 50));
        assert_eq!((seq.wall_ns, seq.round_ns, seq.loop_ns()), (1000, 400, 600));
        assert_eq!(seq.peak_round_ns, 300);
        assert!((seq.active_frac - 6.0 / 8.0).abs() < 1e-12);
        assert_eq!(seq.shards, None);
    }

    #[test]
    fn sharded_run_splits_round_time() {
        let runs = parse_trace(SAMPLE).unwrap();
        let par = fold_run(&runs[1]).unwrap();
        let split = par.shards.unwrap();
        // 1000 ns round = 600 slowest shard + 200 exchange + 200 sync.
        assert_eq!(split.step_ns, 600);
        assert_eq!(split.exchange_ns, 200);
        assert_eq!(split.sync_ns, 200);
        assert_eq!(sync_residual(&runs[1].rounds[0]), 200);
        // max 600 / mean 400 − 1.
        assert!((split.imbalance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sync_residual_saturates_at_zero() {
        let mut r = parse_trace(SAMPLE).unwrap()[1].rounds[0].clone();
        r.exchange_ns = 900;
        assert_eq!(sync_residual(&r), 0);
    }

    #[test]
    fn aborted_run_is_an_error() {
        let text = "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":1,\"shards\":1,\"bounds\":[0,1]}\n";
        let runs = parse_trace(text).unwrap();
        assert!(fold_run(&runs[0]).is_err());
    }
}
