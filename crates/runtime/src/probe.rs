//! The kernel telemetry plane: zero-overhead round/shard probes and
//! structured trace emission.
//!
//! [`execute`](crate::execute) threads a [`Probe`] — a read-only trace
//! sink — through the round loop, on every inbox store and delivery
//! plane. The probe observes what each round and each shard
//! actually did (wall time, message counts, charged volume, delay-queue
//! depth, fault tallies) without being able to influence the run:
//!
//! * **Observer neutrality.** A probe only receives references; it
//!   cannot mutate actor state, metrics, or message flow. Outputs,
//!   metrics, and errors are bit-identical with any probe attached, at
//!   every thread count, on both message planes, clean or faulty
//!   (proptest-enforced in the simulator crates).
//! * **Zero overhead when disabled.** [`NoopProbe`] is a zero-sized
//!   type whose [`Probe::ENABLED`] is `false`; every timing read and
//!   every callback in the kernel is gated on that associated
//!   `const`, so the disabled path monomorphizes to exactly the
//!   pre-probe code. Unprobed runs pass [`NoopProbe`].
//! * **Driving-thread discipline.** All callbacks fire on the thread
//!   that drives the round loop (worker threads only *time* their own
//!   shard), so probes need no `Sync` bound and may use plain interior
//!   mutability ([`RecordingProbe`] and [`JsonlProbe`] use `RefCell`).
//!
//! Three implementations ship with the kernel: [`NoopProbe`] (the
//! default), [`RecordingProbe`] and [`JsonlProbe`]. The last two fill
//! one record, [`TraceRun`] of [`crate::trace`], through one per-round
//! accumulator: [`RecordingProbe`] keeps the runs in memory for tests
//! and programmatic analysis, and [`JsonlProbe`] writes each record as
//! a JSON line (activated per run via the `PGA_TRACE` environment
//! variable when [`RunConfig::probe`](crate::RunConfig) is
//! [`ProbeMode::Env`]). [`parse_trace`](crate::trace::parse_trace) reads
//! those lines back into the same runs; the `trace_view` binary of
//! `pga-bench` renders them as top-k/histogram/imbalance summaries and
//! a chrome://tracing export.

use std::cell::{RefCell, RefMut};
use std::io::Write;

use crate::fault::FaultStats;
use crate::json::Json;
use crate::trace::{self, TraceRound, TraceRun, TraceShard};

/// Selects how the `run_cfg` entry points attach a trace sink.
///
/// Lives in [`RunConfig`](crate::RunConfig) (which stays `Copy + Eq`),
/// so probe *handles* are never part of the config — only the
/// activation policy is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// Honor the `PGA_TRACE` environment variable: when it names a
    /// path, the run streams a [`JsonlProbe`] trace there (appending,
    /// so multi-run processes produce one segmented file); when unset,
    /// the run uses [`NoopProbe`]. This is the default.
    #[default]
    Env,
    /// Never attach a trace sink, even when `PGA_TRACE` is set.
    Off,
}

/// Everything the kernel reports about one completed round, handed to
/// [`Probe::on_round_end`].
#[derive(Debug)]
pub struct RoundObs<'a> {
    /// 0-based index of the round that just executed.
    pub round: usize,
    /// Wall time of the whole round on the driving thread, in
    /// nanoseconds (0 when the probe is disabled).
    pub wall_ns: u64,
    /// Messages charged this round (copies actually traversing links).
    pub messages: u64,
    /// Total charged volume this round (bits for CONGEST, words for
    /// MPC).
    pub volume: u64,
    /// Largest single-message charge this round.
    pub peak_link: usize,
    /// Actors whose `round` callback ran this round.
    pub active: usize,
    /// Log-bucketed histogram of the charged message sizes this round,
    /// when the model records them (see
    /// [`RoundProfile::observe_size`](crate::RoundProfile::observe_size)).
    pub sizes: Option<&'a SizeHist>,
}

/// A read-only trace sink threaded through the round loop.
///
/// All callbacks default to no-ops and fire **on the driving thread
/// only**, in a fixed per-round order: [`Probe::on_round_start`], then
/// one [`Probe::on_shard`] per stepped shard (ascending shard index)
/// and [`Probe::on_exchange`] (runs with two or more shards only), then
/// (adversary and ARQ planes only)
/// [`Probe::on_fault_event`], then [`Probe::on_round_end`].
/// [`Probe::on_run_start`] and [`Probe::on_run_end`] bracket the whole
/// run; a run that aborts with a model error ends without
/// `on_run_end`. Those planes may additionally fire one trailing
/// [`Probe::on_fault_event`] right before `on_run_end`, carrying
/// crashes activated by the final quiescence check (no round ran for
/// them, so there is no `on_round_end` to attach them to).
///
/// The associated [`Probe::ENABLED`] const gates every timing read in
/// the kernel: implementations that actually observe keep the
/// default `true`; [`NoopProbe`] overrides it to `false` so the
/// disabled path compiles down to the probe-free loop.
pub trait Probe {
    /// Whether the kernel should measure wall times and invoke the
    /// callbacks at all. `false` monomorphizes the whole plane away.
    const ENABLED: bool = true;

    /// The run begins: `actors` actor states, partitioned at the
    /// boundary offsets `bounds` (`[0, n]` for single-shard runs).
    fn on_run_start(&self, _actors: usize, _bounds: &[usize]) {}

    /// A round is about to step its actors.
    fn on_round_start(&self, _round: usize) {}

    /// One shard finished stepping: its wall time on its worker thread,
    /// plus the messages and charged volume its actors sent.
    fn on_shard(&self, _round: usize, _shard: usize, _wall_ns: u64, _msgs: u64, _volume: u64) {}

    /// The exchange (scatter/merge of staged messages into next round's
    /// inboxes) finished.
    fn on_exchange(&self, _round: usize, _wall_ns: u64) {}

    /// The adversary or ARQ plane's per-round tally: the fault-stat *delta* of
    /// this round and the delay-queue depth after the exchange.
    fn on_fault_event(&self, _round: usize, _delta: &FaultStats, _delay_depth: usize) {}

    /// The round completed (accounting folded into the model metrics).
    fn on_round_end(&self, _obs: &RoundObs<'_>) {}

    /// The run completed successfully after `rounds` rounds.
    fn on_run_end(&self, _rounds: usize, _wall_ns: u64) {}
}

/// The default probe: a zero-sized sink whose [`Probe::ENABLED`] is
/// `false`, so a loop monomorphized with it contains no timing reads
/// and no callback calls — the probe-free code, exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

/// A log-bucketed power-of-two histogram: bucket `k` counts values in
/// `[2^k, 2^(k+1))` (bucket 0 additionally holds 0). Used for message
/// sizes, where the spread is exponential and exact values matter less
/// than the distribution's shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeHist {
    /// `buckets[k]` counts observed values `v` with `floor(log2 v) == k`
    /// (and `v <= 1` for `k == 0`).
    pub buckets: [u64; 64],
}

impl Default for SizeHist {
    fn default() -> Self {
        SizeHist { buckets: [0; 64] }
    }
}

impl SizeHist {
    /// The bucket index of `value`: `floor(log2 value)`, with 0 and 1
    /// both in bucket 0.
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper edge of bucket `k` (`2^(k+1) - 1`, saturated
    /// for the last bucket).
    pub fn bucket_upper(k: usize) -> u64 {
        if k >= 63 {
            u64::MAX
        } else {
            (1u64 << (k + 1)) - 1
        }
    }

    /// Records `copies` observations of `value`.
    pub fn record(&mut self, value: u64, copies: u64) {
        self.buckets[Self::bucket_of(value)] += copies;
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &SizeHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The inclusive upper edge of the bucket holding the `p`-th
    /// percentile observation (`p` in `0.0..=100.0`), or 0 when the
    /// histogram is empty. Log-bucketed, so the answer is exact to
    /// within a factor of two — the intended resolution.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(k);
            }
        }
        Self::bucket_upper(63)
    }

    /// The inclusive upper edge of the highest non-empty bucket, or 0.
    pub fn max_value(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, Self::bucket_upper)
    }
}

/// The round record under construction between `on_round_start` and
/// `on_round_end`: both recording probes fill it from the same
/// callbacks, so they build the same [`TraceRound`].
#[derive(Debug, Default)]
struct PendingRound(TraceRound);

impl PendingRound {
    fn shard(&mut self, shard: usize, wall_ns: u64, messages: u64, volume: u64) {
        let shard = TraceShard {
            shard,
            wall_ns,
            messages,
            volume,
        };
        self.0.shards.push(shard);
    }

    fn exchange(&mut self, wall_ns: u64) {
        self.0.exchange_ns = wall_ns;
    }

    fn fault(&mut self, delta: &FaultStats, delay_depth: usize) {
        self.0.fault = *delta;
        self.0.delay_depth = delay_depth as u64;
    }

    /// Completes the record with the kernel's round summary.
    fn finish(&mut self, obs: &RoundObs<'_>) -> TraceRound {
        let sizes = obs.sizes.map_or(&[0; 64], |h| &h.buckets);
        TraceRound {
            round: obs.round,
            wall_ns: obs.wall_ns,
            messages: obs.messages,
            volume: obs.volume,
            peak_link: obs.peak_link as u64,
            active: obs.active as u64,
            sizes: (0..).zip(*sizes).filter(|&(_, c)| c > 0).collect(),
            ..std::mem::take(&mut self.0)
        }
    }

    /// The fault delta that arrived after the last round: crashes
    /// activated by the final quiescence check.
    fn residual(&mut self) -> FaultStats {
        std::mem::take(&mut self.0).fault
    }
}

/// An in-memory trace sink: one [`TraceRun`] per run, the same records
/// [`JsonlProbe`] writes and [`parse_trace`](crate::trace::parse_trace)
/// reads back. For tests, the overhead gate and programmatic analysis.
///
/// Interior mutability is a plain `RefCell` — safe because every
/// callback fires on the driving thread (see [`Probe`]).
#[derive(Debug, Default)]
pub struct RecordingProbe {
    label: String,
    state: RefCell<(Vec<TraceRun>, PendingRound)>,
}

impl RecordingProbe {
    /// An empty recording sink labelling its runs `label`
    /// (conventionally the model family: `"congest"`, `"mpc"`).
    pub fn new(label: &str) -> Self {
        RecordingProbe {
            label: label.to_string(),
            ..Self::default()
        }
    }

    /// Consumes the probe and returns its runs, in order. A run that
    /// aborted with a model error has `end: None`.
    pub fn into_runs(self) -> Vec<TraceRun> {
        self.state.into_inner().0
    }

    fn run(&self) -> RefMut<'_, TraceRun> {
        RefMut::map(self.state.borrow_mut(), |(runs, _)| {
            runs.last_mut()
                .expect("on_run_start precedes every run event")
        })
    }
}

impl Probe for RecordingProbe {
    fn on_run_start(&self, actors: usize, bounds: &[usize]) {
        let run = TraceRun::start(&self.label, actors, bounds);
        self.state.borrow_mut().0.push(run);
    }

    fn on_shard(&self, _round: usize, shard: usize, wall_ns: u64, msgs: u64, volume: u64) {
        self.state
            .borrow_mut()
            .1
            .shard(shard, wall_ns, msgs, volume);
    }

    fn on_exchange(&self, _round: usize, wall_ns: u64) {
        self.state.borrow_mut().1.exchange(wall_ns);
    }

    fn on_fault_event(&self, _round: usize, delta: &FaultStats, delay_depth: usize) {
        self.state.borrow_mut().1.fault(delta, delay_depth);
    }

    fn on_round_end(&self, obs: &RoundObs<'_>) {
        let round = self.state.borrow_mut().1.finish(obs);
        self.run().rounds.push(round);
    }

    fn on_run_end(&self, rounds: usize, wall_ns: u64) {
        let residual = self.state.borrow_mut().1.residual();
        let mut run = self.run();
        run.end = Some((rounds as u64, wall_ns));
        run.end_fault = residual;
    }
}

/// Streams the trace records to a writer as JSONL, one compact
/// [`Json`] line per event, in the schema of [`crate::trace`] (also
/// documented in the README and validated by `trace_view --validate`).
///
/// Write errors are swallowed (a trace sink must never abort a run);
/// the writer is flushed at `on_run_end`.
#[derive(Debug)]
pub struct JsonlProbe<W: Write> {
    label: String,
    state: RefCell<(W, PendingRound)>,
}

impl JsonlProbe<std::io::BufWriter<std::fs::File>> {
    /// A probe appending to the path named by the `PGA_TRACE`
    /// environment variable, or `None` when the variable is unset,
    /// empty, or the file cannot be opened.
    pub fn from_env(label: &str) -> Option<Self> {
        let path = std::env::var("PGA_TRACE").ok().filter(|p| !p.is_empty())?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()?;
        Some(JsonlProbe::new(std::io::BufWriter::new(file), label))
    }

    /// [`JsonlProbe::from_env`] gated on the config's
    /// [`ProbeMode`]: `Env` consults `PGA_TRACE`, `Off` always returns
    /// `None`. The simulators' `run_cfg` entry points call this.
    pub fn from_run_config(cfg: &crate::RunConfig, label: &str) -> Option<Self> {
        match cfg.probe {
            ProbeMode::Env => Self::from_env(label),
            ProbeMode::Off => None,
        }
    }
}

impl<W: Write> JsonlProbe<W> {
    /// A probe streaming to `out`, tagging its `run_start` event with
    /// `label` (conventionally the model family: `"congest"`, `"mpc"`).
    pub fn new(out: W, label: &str) -> Self {
        JsonlProbe {
            label: label.to_string(),
            state: RefCell::new((out, PendingRound::default())),
        }
    }

    /// Consumes the probe and returns the writer (flushed).
    pub fn into_writer(self) -> W {
        let (mut out, _) = self.state.into_inner();
        let _ = out.flush();
        out
    }

    fn emit(&self, line: &Json) {
        let _ = writeln!(self.state.borrow_mut().0, "{}", line.to_compact());
    }
}

impl<W: Write> Probe for JsonlProbe<W> {
    fn on_run_start(&self, actors: usize, bounds: &[usize]) {
        self.emit(&TraceRun::start(&self.label, actors, bounds).start_json());
    }

    fn on_shard(&self, _round: usize, shard: usize, wall_ns: u64, msgs: u64, volume: u64) {
        self.state
            .borrow_mut()
            .1
            .shard(shard, wall_ns, msgs, volume);
    }

    fn on_exchange(&self, _round: usize, wall_ns: u64) {
        self.state.borrow_mut().1.exchange(wall_ns);
    }

    fn on_fault_event(&self, _round: usize, delta: &FaultStats, delay_depth: usize) {
        self.state.borrow_mut().1.fault(delta, delay_depth);
    }

    fn on_round_end(&self, obs: &RoundObs<'_>) {
        let round = self.state.borrow_mut().1.finish(obs);
        self.emit(&round.to_json());
    }

    fn on_run_end(&self, rounds: usize, wall_ns: u64) {
        let residual = self.state.borrow_mut().1.residual();
        self.emit(&trace::end_json(rounds as u64, wall_ns, &residual));
        let _ = self.state.borrow_mut().0.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_hist_buckets_and_percentiles() {
        assert_eq!(SizeHist::bucket_of(0), 0);
        assert_eq!(SizeHist::bucket_of(1), 0);
        assert_eq!(SizeHist::bucket_of(2), 1);
        assert_eq!(SizeHist::bucket_of(3), 1);
        assert_eq!(SizeHist::bucket_of(4), 2);
        assert_eq!(SizeHist::bucket_of(u64::MAX), 63);
        assert_eq!(SizeHist::bucket_upper(0), 1);
        assert_eq!(SizeHist::bucket_upper(2), 7);
        assert_eq!(SizeHist::bucket_upper(63), u64::MAX);

        let mut h = SizeHist::default();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max_value(), 0);
        // 90 small values, 10 large: p50 in the small bucket, p99 in
        // the large one.
        h.record(3, 90);
        h.record(1000, 10);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 3);
        assert_eq!(h.percentile(99.0), 1023);
        assert_eq!(h.max_value(), 1023);

        let mut other = SizeHist::default();
        other.record(3, 10);
        h.merge(&other);
        assert_eq!(h.count(), 110);
    }

    /// Drives `probe` through one two-shard round of a faulty run: the
    /// callback sequence the kernel emits.
    fn drive(probe: &impl Probe) {
        probe.on_run_start(8, &[0, 4, 8]);
        probe.on_round_start(0);
        probe.on_shard(0, 0, 40, 3, 30);
        probe.on_shard(0, 1, 20, 3, 30);
        probe.on_exchange(0, 10);
        let arq = FaultStats {
            delivered: 6,
            dropped: 2,
            duplicated: 1,
            delayed: 1,
            retransmitted: 2,
            acks: 3,
            ..FaultStats::default()
        };
        probe.on_fault_event(0, &arq, 1);
        let mut sizes = SizeHist::default();
        sizes.record(10, 4);
        sizes.record(100, 2);
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 100,
            messages: 6,
            volume: 60,
            peak_link: 16,
            active: 8,
            sizes: Some(&sizes),
        });
        let residual = FaultStats {
            crashed: 1,
            ..FaultStats::default()
        };
        probe.on_fault_event(1, &residual, 0);
        probe.on_run_end(1, 200);
    }

    #[test]
    fn recording_probe_orders_rounds_and_shards() {
        let probe = RecordingProbe::new("congest");
        drive(&probe);
        // A second run that aborts: no run_end.
        probe.on_run_start(2, &[0, 2]);
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 5,
            messages: 0,
            volume: 0,
            peak_link: 0,
            active: 2,
            sizes: None,
        });
        let runs = probe.into_runs();
        assert_eq!(runs.len(), 2);
        let run = &runs[0];
        assert_eq!(
            (run.label.as_str(), run.actors, run.shards),
            ("congest", 8, 2)
        );
        assert_eq!(run.bounds, vec![0, 4, 8]);
        assert_eq!(run.end, Some((1, 200)));
        let r = &run.rounds[0];
        assert_eq!(r.shards.len(), 2);
        assert_eq!((r.exchange_ns, r.delay_depth, r.messages), (10, 1, 6));
        assert_eq!(r.sizes, vec![(3, 4), (6, 2)]);
        assert_eq!(run.size_hist().count(), 6);
        // max wall 40 vs mean 30 -> 1/3 imbalance.
        assert!((r.shard_imbalance() - 1.0 / 3.0).abs() < 1e-9);
        // The run's tally is the round delta plus the residual crash.
        assert_eq!(r.fault.delivered, 6);
        assert_eq!(run.end_fault.crashed, 1);
        let total = run.fault_total();
        assert_eq!((total.delivered, total.dropped, total.crashed), (6, 2, 1));
        assert_eq!(runs[1].end, None);
        assert_eq!(runs[1].rounds.len(), 1);
    }

    #[test]
    fn jsonl_probe_golden_lines() {
        let probe = JsonlProbe::new(Vec::new(), "congest");
        drive(&probe);
        let out = String::from_utf8(probe.into_writer()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"event":"run_start","label":"congest","actors":8,"shards":2,"bounds":[0,4,8]}"#,
                concat!(
                    r#"{"event":"round","round":0,"wall_ns":100,"messages":6,"volume":60,"#,
                    r#""peak_link":16,"active":8,"exchange_ns":10,"delay_depth":1,"#,
                    r#""shards":[{"shard":0,"wall_ns":40,"messages":3,"volume":30},"#,
                    r#"{"shard":1,"wall_ns":20,"messages":3,"volume":30}],"#,
                    r#""sizes":[[3,4],[6,2]],"#,
                    r#""fault":{"delivered":6,"dropped":2,"duplicated":1,"delayed":1,"crashed":0,"#,
                    r#""retransmitted":2,"acks":3,"dead_links":0}}"#
                ),
                concat!(
                    r#"{"event":"run_end","rounds":1,"wall_ns":200,"#,
                    r#""fault":{"delivered":0,"dropped":0,"duplicated":0,"delayed":0,"crashed":1}}"#
                ),
            ]
        );
    }

    #[test]
    fn jsonl_probe_emits_one_line_per_event() {
        let probe = JsonlProbe::new(Vec::new(), "test");
        probe.on_run_start(4, &[0, 4]);
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 10,
            messages: 2,
            volume: 20,
            peak_link: 10,
            active: 4,
            sizes: Some(&SizeHist::default()),
        });
        probe.on_run_end(1, 99);
        let out = String::from_utf8(probe.into_writer()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"event":"run_start","label":"test","actors":4,"shards":1,"bounds":[0,4]}"#,
                concat!(
                    r#"{"event":"round","round":0,"wall_ns":10,"messages":2,"volume":20,"#,
                    r#""peak_link":10,"active":4,"exchange_ns":0,"delay_depth":0}"#
                ),
                r#"{"event":"run_end","rounds":1,"wall_ns":99}"#,
            ]
        );
    }

    #[test]
    fn both_probes_build_the_same_record() {
        let rec = RecordingProbe::new("congest");
        let jsonl = JsonlProbe::new(Vec::new(), "congest");
        drive(&rec);
        drive(&jsonl);
        let text = String::from_utf8(jsonl.into_writer()).unwrap();
        assert_eq!(trace::parse_trace(&text).unwrap(), rec.into_runs());
    }
}
