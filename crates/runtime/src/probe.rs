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
//! default), [`RecordingProbe`] (in-memory [`RunTelemetry`] for tests
//! and programmatic analysis), and [`JsonlProbe`] (streams one JSON
//! object per event to a writer, each built as a [`Json`] value and
//! written by the workspace's one JSON writer in [`crate::json`];
//! activated per run via the `PGA_TRACE` environment variable when
//! [`RunConfig::probe`](crate::RunConfig) is [`ProbeMode::Env`]). The
//! `trace_view` binary of `pga-bench` reads the JSONL stream back with
//! the same module for top-k/histogram/imbalance summaries and
//! chrome://tracing export.

use std::cell::RefCell;
use std::io::Write;

use crate::fault::FaultStats;
use crate::json::Json;

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
    /// boundary offsets `bounds` (`[0, n]` for single-shard runs), with
    /// per-actor costs `costs` (empty when the kernel never computed
    /// them — single-shard runs).
    fn on_run_start(&self, _actors: usize, _bounds: &[usize], _costs: &[u64]) {}

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
/// sizes and per-round link load, where the spread is exponential and
/// exact values matter less than the distribution's shape.
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

/// One shard's record within a round, as captured by
/// [`Probe::on_shard`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// Wall time of the shard's step phase on its worker thread, in
    /// nanoseconds.
    pub wall_ns: u64,
    /// Messages the shard's actors sent (charged copies).
    pub messages: u64,
    /// Charged volume the shard's actors sent.
    pub volume: u64,
}

/// One round's record inside [`RunTelemetry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// 0-based round index.
    pub round: usize,
    /// Wall time of the whole round on the driving thread, in
    /// nanoseconds.
    pub wall_ns: u64,
    /// Messages charged this round.
    pub messages: u64,
    /// Charged volume this round.
    pub volume: u64,
    /// Largest single-message charge this round.
    pub peak_link: usize,
    /// Actors stepped this round.
    pub active: usize,
    /// Wall time of the exchange phase, in nanoseconds (0 when the
    /// round had no exchange work).
    pub exchange_ns: u64,
    /// Per-shard records, ascending shard index (empty on single-shard
    /// rounds).
    pub shards: Vec<ShardTelemetry>,
    /// In-network queue depth after the exchange (adversary delay queue
    /// or ARQ wire; 0 on the clean plane).
    pub delay_depth: usize,
    /// This round's fault-stat delta (all zeros on the clean plane).
    pub fault: FaultStats,
}

impl RoundTelemetry {
    /// The round's shard imbalance: `max/mean - 1` over the per-shard
    /// wall times (falling back to message counts when the wall times
    /// are all zero), or 0.0 with fewer than two shard records.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards.len() < 2 {
            return 0.0;
        }
        let walls: Vec<u64> = self.shards.iter().map(|s| s.wall_ns).collect();
        let vals = if walls.iter().any(|&w| w > 0) {
            walls
        } else {
            self.shards.iter().map(|s| s.messages).collect()
        };
        let max = *vals.iter().max().unwrap() as f64;
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }
}

/// The in-memory record a [`RecordingProbe`] accumulates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunTelemetry {
    /// Number of actors in the run.
    pub actors: usize,
    /// Shard boundary offsets (`[0, n]` for single-shard runs).
    pub bounds: Vec<usize>,
    /// Per-actor costs the partition was balanced on (empty for
    /// single-shard runs).
    pub costs: Vec<u64>,
    /// Per-round records, in execution order.
    pub rounds: Vec<RoundTelemetry>,
    /// Whole-run wall time in nanoseconds (set by `on_run_end`; 0 when
    /// the run aborted with an error).
    pub wall_ns: u64,
    /// Whether `on_run_end` fired (i.e. the run completed).
    pub completed: bool,
    /// Whole-run histogram of charged message sizes.
    pub sizes: SizeHist,
    /// Histogram of the per-round peak link charges (the congestion
    /// distribution over rounds).
    pub link_load: SizeHist,
    /// Whole-run fault tally (sum of the per-round deltas).
    pub fault: FaultStats,
}

impl RunTelemetry {
    /// The static partition imbalance: `max/mean - 1` over the total
    /// per-shard costs of the recorded partition, or 0.0 without a
    /// multi-shard cost-annotated partition.
    pub fn partition_imbalance(&self) -> f64 {
        if self.bounds.len() < 3 || self.costs.is_empty() {
            return 0.0;
        }
        let totals: Vec<u64> = self
            .bounds
            .windows(2)
            .map(|w| self.costs[w[0]..w[1]].iter().sum())
            .collect();
        let max = *totals.iter().max().unwrap() as f64;
        let mean = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }
}

/// Per-round scratch a probe accumulates between `on_round_start` and
/// `on_round_end`.
#[derive(Debug, Default)]
struct PendingRound {
    shards: Vec<ShardTelemetry>,
    exchange_ns: u64,
    fault: FaultStats,
    delay_depth: usize,
}

/// An in-memory trace sink: accumulates a [`RunTelemetry`] for
/// programmatic inspection (tests, the overhead gate, notebooks).
///
/// Interior mutability is a plain `RefCell` — safe because every
/// callback fires on the driving thread (see [`Probe`]).
#[derive(Debug, Default)]
pub struct RecordingProbe {
    state: RefCell<(RunTelemetry, PendingRound)>,
}

impl RecordingProbe {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the probe and returns everything it recorded.
    pub fn into_telemetry(self) -> RunTelemetry {
        self.state.into_inner().0
    }
}

impl Probe for RecordingProbe {
    fn on_run_start(&self, actors: usize, bounds: &[usize], costs: &[u64]) {
        let mut s = self.state.borrow_mut();
        s.0.actors = actors;
        s.0.bounds = bounds.to_vec();
        s.0.costs = costs.to_vec();
    }

    fn on_shard(&self, _round: usize, shard: usize, wall_ns: u64, msgs: u64, volume: u64) {
        self.state.borrow_mut().1.shards.push(ShardTelemetry {
            shard,
            wall_ns,
            messages: msgs,
            volume,
        });
    }

    fn on_exchange(&self, _round: usize, wall_ns: u64) {
        self.state.borrow_mut().1.exchange_ns = wall_ns;
    }

    fn on_fault_event(&self, _round: usize, delta: &FaultStats, delay_depth: usize) {
        let mut s = self.state.borrow_mut();
        s.1.fault = *delta;
        s.1.delay_depth = delay_depth;
    }

    fn on_round_end(&self, obs: &RoundObs<'_>) {
        let mut s = self.state.borrow_mut();
        let pending = std::mem::take(&mut s.1);
        if let Some(h) = obs.sizes {
            s.0.sizes.merge(h);
        }
        s.0.link_load.record(obs.peak_link as u64, 1);
        s.0.fault.absorb(&pending.fault);
        s.0.rounds.push(RoundTelemetry {
            round: obs.round,
            wall_ns: obs.wall_ns,
            messages: obs.messages,
            volume: obs.volume,
            peak_link: obs.peak_link,
            active: obs.active,
            exchange_ns: pending.exchange_ns,
            shards: pending.shards,
            delay_depth: pending.delay_depth,
            fault: pending.fault,
        });
    }

    fn on_run_end(&self, _rounds: usize, wall_ns: u64) {
        let mut s = self.state.borrow_mut();
        // A trailing fault event (crashes activated by the final
        // quiescence check, after the last round ran) parks in the
        // pending scratch; fold it in so the run tally matches the
        // metrics' whole-run `FaultStats`.
        let residual = std::mem::take(&mut s.1).fault;
        s.0.fault.absorb(&residual);
        s.0.wall_ns = wall_ns;
        s.0.completed = true;
    }
}

/// Streams one JSON object per event to a writer, newline-delimited
/// (JSONL): each event is a [`Json`] value written with
/// [`Json::to_compact`]. The schema (also documented in the README and
/// validated by `trace_view --validate`):
///
/// ```json
/// {"event":"run_start","label":"congest","actors":64,"shards":4,"bounds":[0,16,32,48,64]}
/// {"event":"round","round":0,"wall_ns":8120,"messages":12,"volume":384,
///  "peak_link":32,"active":64,"exchange_ns":950,"delay_depth":0,
///  "shards":[{"shard":0,"wall_ns":2100,"messages":3,"volume":96}],
///  "sizes":[[5,12]],
///  "fault":{"dropped":1,"duplicated":0,"delayed":0,"crashed":0}}
/// {"event":"run_end","rounds":11,"wall_ns":913000}
/// ```
///
/// `shards`, `sizes`, and `fault` are omitted when empty/all-zero. A
/// `run_end` record may also carry a `fault` object: the residual delta
/// of crashes activated by the final quiescence check (after the last
/// round ran). Under the ARQ plane the `fault` object also
/// carries `"retransmitted"`, `"acks"`, and `"dead_links"` counters
/// (omitted as a trio when all zero, so raw-path traces are unchanged):
///
/// ```json
/// {"event":"round","round":3,"wall_ns":9001,"messages":18,"volume":600,
///  "peak_link":40,"active":64,"exchange_ns":800,"delay_depth":0,
///  "fault":{"dropped":2,"duplicated":0,"delayed":0,"crashed":0,
///           "retransmitted":2,"acks":14,"dead_links":0}}
/// ```
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

    fn emit(&self, event: &Json) {
        let mut s = self.state.borrow_mut();
        let _ = writeln!(s.0, "{}", event.to_compact());
    }
}

impl<W: Write> Probe for JsonlProbe<W> {
    fn on_run_start(&self, actors: usize, bounds: &[usize], _costs: &[u64]) {
        self.emit(&Json::obj([
            ("event", "run_start".into()),
            ("label", self.label.as_str().into()),
            ("actors", actors.into()),
            ("shards", bounds.len().saturating_sub(1).into()),
            ("bounds", bounds.iter().map(|&b| b.into()).collect()),
        ]));
    }

    fn on_shard(&self, _round: usize, shard: usize, wall_ns: u64, msgs: u64, volume: u64) {
        self.state.borrow_mut().1.shards.push(ShardTelemetry {
            shard,
            wall_ns,
            messages: msgs,
            volume,
        });
    }

    fn on_exchange(&self, _round: usize, wall_ns: u64) {
        self.state.borrow_mut().1.exchange_ns = wall_ns;
    }

    fn on_fault_event(&self, _round: usize, delta: &FaultStats, delay_depth: usize) {
        let mut s = self.state.borrow_mut();
        s.1.fault = *delta;
        s.1.delay_depth = delay_depth;
    }

    fn on_round_end(&self, obs: &RoundObs<'_>) {
        let pending = std::mem::take(&mut self.state.borrow_mut().1);
        let mut event = vec![
            ("event", "round".into()),
            ("round", obs.round.into()),
            ("wall_ns", obs.wall_ns.into()),
            ("messages", obs.messages.into()),
            ("volume", obs.volume.into()),
            ("peak_link", obs.peak_link.into()),
            ("active", obs.active.into()),
            ("exchange_ns", pending.exchange_ns.into()),
            ("delay_depth", pending.delay_depth.into()),
        ];
        if !pending.shards.is_empty() {
            let shards = pending.shards.iter().map(|sh| {
                Json::obj([
                    ("shard", sh.shard.into()),
                    ("wall_ns", sh.wall_ns.into()),
                    ("messages", sh.messages.into()),
                    ("volume", sh.volume.into()),
                ])
            });
            event.push(("shards", shards.collect()));
        }
        if let Some(h) = obs.sizes.filter(|h| !h.is_empty()) {
            let pairs = (0..).zip(h.buckets).filter(|&(_, c)| c > 0);
            let pairs = pairs.map(|(k, c): (usize, u64)| Json::Arr(vec![k.into(), c.into()]));
            event.push(("sizes", pairs.collect()));
        }
        event.extend(fault_json(&pending.fault).map(|f| ("fault", f)));
        self.emit(&Json::obj(event));
    }

    fn on_run_end(&self, rounds: usize, wall_ns: u64) {
        // Crashes activated by the final quiescence check arrive as a
        // trailing fault event with no round to attach to; surface them
        // on the run_end record (optional field, all-zero omitted).
        let residual = std::mem::take(&mut self.state.borrow_mut().1).fault;
        let mut event = vec![
            ("event", "run_end".into()),
            ("rounds", rounds.into()),
            ("wall_ns", wall_ns.into()),
        ];
        event.extend(fault_json(&residual).map(|f| ("fault", f)));
        self.emit(&Json::obj(event));
        let _ = self.state.borrow_mut().0.flush();
    }
}

/// Renders a fault-stat delta as its trace-record JSON object, or
/// `None` when every counter is zero (field omitted). The base quartet
/// is always present when the object is; the ARQ trio
/// (`retransmitted`/`acks`/`dead_links`) is appended only when the
/// ARQ plane produced any, so raw-path traces keep the
/// pre-reliability shape byte for byte.
fn fault_json(f: &FaultStats) -> Option<Json> {
    let mut members = vec![
        ("dropped", f.dropped),
        ("duplicated", f.duplicated),
        ("delayed", f.delayed),
        ("crashed", f.crashed),
    ];
    if f.retransmitted + f.acks + f.dead_links > 0 {
        members.extend([
            ("retransmitted", f.retransmitted),
            ("acks", f.acks),
            ("dead_links", f.dead_links),
        ]);
    }
    let any = members.iter().any(|&(_, n)| n > 0);
    any.then(|| Json::obj(members.into_iter().map(|(k, n)| (k, n.into()))))
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

    #[test]
    fn recording_probe_orders_rounds_and_shards() {
        let probe = RecordingProbe::new();
        probe.on_run_start(8, &[0, 4, 8], &[1, 1, 1, 1, 1, 1, 1, 1]);
        probe.on_round_start(0);
        probe.on_shard(0, 0, 100, 3, 30);
        probe.on_shard(0, 1, 200, 1, 10);
        probe.on_exchange(0, 50);
        let mut sizes = SizeHist::default();
        sizes.record(10, 4);
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 400,
            messages: 4,
            volume: 40,
            peak_link: 10,
            active: 8,
            sizes: Some(&sizes),
        });
        probe.on_run_end(1, 1000);
        let t = probe.into_telemetry();
        assert!(t.completed);
        assert_eq!(t.actors, 8);
        assert_eq!(t.bounds, vec![0, 4, 8]);
        assert_eq!(t.rounds.len(), 1);
        let r = &t.rounds[0];
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.exchange_ns, 50);
        assert_eq!(r.messages, 4);
        assert_eq!(t.sizes.count(), 4);
        assert_eq!(t.link_load.count(), 1);
        // max wall 200 vs mean 150 -> 1/3 imbalance.
        assert!((r.shard_imbalance() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.partition_imbalance(), 0.0);
    }

    #[test]
    fn partition_imbalance_reflects_cost_skew() {
        let probe = RecordingProbe::new();
        // Shard 0 carries 3x the cost of shard 1.
        probe.on_run_start(4, &[0, 2, 4], &[3, 3, 1, 1]);
        probe.on_run_end(0, 0);
        let t = probe.into_telemetry();
        // totals [6, 2], mean 4, max 6 -> 0.5.
        assert!((t.partition_imbalance() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn jsonl_probe_emits_one_line_per_event() {
        let probe = JsonlProbe::new(Vec::new(), "test");
        probe.on_run_start(4, &[0, 4], &[]);
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 10,
            messages: 2,
            volume: 20,
            peak_link: 10,
            active: 4,
            sizes: None,
        });
        probe.on_run_end(1, 99);
        let out = String::from_utf8(probe.into_writer()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"run_start\""));
        assert!(lines[0].contains("\"label\":\"test\""));
        assert!(lines[1].contains("\"event\":\"round\""));
        assert!(!lines[1].contains("\"shards\""), "{}", lines[1]);
        assert!(!lines[1].contains("\"fault\""), "{}", lines[1]);
        assert!(lines[2].contains("\"rounds\":1"));
    }

    #[test]
    fn jsonl_probe_golden_lines() {
        let probe = JsonlProbe::new(Vec::new(), "congest");
        probe.on_run_start(8, &[0, 4, 8], &[1; 8]);
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
                    r#""fault":{"dropped":2,"duplicated":1,"delayed":1,"crashed":0,"#,
                    r#""retransmitted":2,"acks":3,"dead_links":0}}"#
                ),
                r#"{"event":"run_end","rounds":1,"wall_ns":200,"fault":{"dropped":0,"duplicated":0,"delayed":0,"crashed":1}}"#,
            ]
        );
    }

    #[test]
    fn fault_delta_reaches_round_record() {
        let probe = RecordingProbe::new();
        probe.on_round_start(0);
        probe.on_fault_event(
            0,
            &FaultStats {
                delivered: 5,
                dropped: 2,
                duplicated: 1,
                delayed: 1,
                ..FaultStats::default()
            },
            3,
        );
        probe.on_round_end(&RoundObs {
            round: 0,
            wall_ns: 0,
            messages: 5,
            volume: 50,
            peak_link: 10,
            active: 4,
            sizes: None,
        });
        let t = probe.into_telemetry();
        assert_eq!(t.rounds[0].fault.dropped, 2);
        assert_eq!(t.rounds[0].delay_depth, 3);
        assert_eq!(t.fault.dropped, 2);
    }
}
