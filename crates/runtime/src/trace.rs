//! The trace record and its JSONL schema, defined once.
//!
//! A trace is a sequence of [`TraceRun`]s, each a `run_start` header, one
//! [`TraceRound`] per kernel round, and (for completed runs) a `run_end`
//! record. [`RecordingProbe`](crate::RecordingProbe) keeps these records
//! in memory; [`JsonlProbe`](crate::JsonlProbe) writes each as one
//! compact [`Json`] line; [`parse_trace`] reads the lines back into the
//! same records, exactly. The schema, one line per event:
//!
//! ```json
//! {"event":"run_start","label":"congest","actors":64,"shards":4,"bounds":[0,16,32,48,64]}
//! {"event":"round","round":0,"wall_ns":8120,"messages":12,"volume":384,
//!  "peak_link":32,"active":64,"exchange_ns":950,"delay_depth":0,
//!  "shards":[{"shard":0,"wall_ns":2100,"messages":3,"volume":96}],
//!  "sizes":[[5,12]],
//!  "fault":{"delivered":11,"dropped":1,"duplicated":0,"delayed":0,"crashed":0}}
//! {"event":"run_end","rounds":11,"wall_ns":913000}
//! ```
//!
//! `shards`, `sizes` (`[log2-bucket, count]` pairs) and `fault` are
//! omitted when empty or all zero. A `run_end` record may carry a
//! `fault` object too: the residual delta of crashes activated by the
//! final quiescence check, after the last round ran. Under the ARQ plane
//! the `fault` object also carries `"retransmitted"`, `"acks"` and
//! `"dead_links"`, together or not at all, so raw-path traces never
//! show them. Every number is an unsigned integer.

use crate::fault::FaultStats;
use crate::json::{self, Json};
use crate::probe::SizeHist;

/// One shard's record within a [`TraceRound`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceShard {
    /// Shard index.
    pub shard: usize,
    /// Step-phase wall time on the shard's worker thread, ns.
    pub wall_ns: u64,
    /// Messages the shard's actors sent.
    pub messages: u64,
    /// Charged volume the shard's actors sent.
    pub volume: u64,
}

/// One `round` record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRound {
    /// 0-based round index.
    pub round: usize,
    /// Round wall time on the driving thread, ns.
    pub wall_ns: u64,
    /// Messages charged this round.
    pub messages: u64,
    /// Charged volume this round.
    pub volume: u64,
    /// Largest single-message charge this round.
    pub peak_link: u64,
    /// Actors stepped this round.
    pub active: u64,
    /// Exchange-phase wall time, ns (runs with two or more shards only).
    pub exchange_ns: u64,
    /// In-network queue depth after the exchange (adversary delay queue
    /// or ARQ wire; 0 on the clean plane).
    pub delay_depth: u64,
    /// Per-shard records, strictly ascending shard index (empty on
    /// single-shard rounds).
    pub shards: Vec<TraceShard>,
    /// Non-empty size-histogram buckets as `(bucket, count)` pairs.
    pub sizes: Vec<(usize, u64)>,
    /// This round's fault delta (all zero on the clean plane).
    pub fault: FaultStats,
}

impl TraceRound {
    /// The round's shard imbalance: `max/mean - 1` over per-shard wall
    /// times (falling back to message counts when the wall times are
    /// all zero), or 0.0 with fewer than two shard records.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards.len() < 2 {
            return 0.0;
        }
        let walls = self.shards.iter().any(|s| s.wall_ns > 0);
        let vals: Vec<u64> = (self.shards.iter())
            .map(|s| if walls { s.wall_ns } else { s.messages })
            .collect();
        let max = *vals.iter().max().unwrap() as f64;
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean - 1.0
        }
    }

    /// This round's size histogram, rehydrated into a [`SizeHist`].
    pub fn size_hist(&self) -> SizeHist {
        let mut h = SizeHist::default();
        for &(k, c) in &self.sizes {
            h.buckets[k] += c;
        }
        h
    }

    /// The `round` line of this record.
    pub(crate) fn to_json(&self) -> Json {
        let mut line = vec![
            ("event", "round".into()),
            ("round", self.round.into()),
            ("wall_ns", self.wall_ns.into()),
            ("messages", self.messages.into()),
            ("volume", self.volume.into()),
            ("peak_link", self.peak_link.into()),
            ("active", self.active.into()),
            ("exchange_ns", self.exchange_ns.into()),
            ("delay_depth", self.delay_depth.into()),
        ];
        if !self.shards.is_empty() {
            let shards = self.shards.iter().map(|sh| {
                Json::obj([
                    ("shard", sh.shard.into()),
                    ("wall_ns", sh.wall_ns.into()),
                    ("messages", sh.messages.into()),
                    ("volume", sh.volume.into()),
                ])
            });
            line.push(("shards", shards.collect()));
        }
        if !self.sizes.is_empty() {
            let pairs = self
                .sizes
                .iter()
                .map(|&(k, c)| Json::Arr(vec![k.into(), c.into()]));
            line.push(("sizes", pairs.collect()));
        }
        line.extend(fault_json(&self.fault).map(|f| ("fault", f)));
        Json::obj(line)
    }
}

/// One run of a trace: its `run_start` header, its rounds, and (for
/// completed runs) its `run_end` record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRun {
    /// The emitting model family (`"congest"`, `"mpc"`, …).
    pub label: String,
    /// Actors in the run.
    pub actors: u64,
    /// Shard count of the partition.
    pub shards: u64,
    /// Shard boundary offsets (`[0, actors]` for single-shard runs).
    pub bounds: Vec<u64>,
    /// Round records in execution order.
    pub rounds: Vec<TraceRound>,
    /// `(rounds, wall_ns)` of the `run_end` record; `None` when the run
    /// aborted with a model error before completing.
    pub end: Option<(u64, u64)>,
    /// The residual fault delta of the `run_end` record: crashes
    /// activated by the final quiescence check.
    pub end_fault: FaultStats,
}

impl TraceRun {
    /// A run header with no rounds yet.
    pub(crate) fn start(label: &str, actors: usize, bounds: &[usize]) -> Self {
        TraceRun {
            label: label.to_string(),
            actors: actors as u64,
            shards: bounds.len().saturating_sub(1) as u64,
            bounds: bounds.iter().map(|&b| b as u64).collect(),
            ..TraceRun::default()
        }
    }

    /// Whole-run wall time: the `run_end` record when present, else the
    /// sum of the recorded round wall times.
    pub fn total_wall_ns(&self) -> u64 {
        self.end
            .map(|(_, ns)| ns)
            .unwrap_or_else(|| self.rounds.iter().map(|r| r.wall_ns).sum())
    }

    /// Whole-run size histogram (all rounds merged).
    pub fn size_hist(&self) -> SizeHist {
        let mut h = SizeHist::default();
        for r in &self.rounds {
            h.merge(&r.size_hist());
        }
        h
    }

    /// The `k` hottest rounds by wall time, hottest first (ties broken
    /// by round index for determinism).
    pub fn hottest(&self, k: usize) -> Vec<&TraceRound> {
        let mut by_wall: Vec<&TraceRound> = self.rounds.iter().collect();
        by_wall.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.round.cmp(&b.round)));
        by_wall.truncate(k);
        by_wall
    }

    /// The whole-run fault tally: every round's delta plus the `run_end`
    /// residual. On a completed run it equals the metrics' `FaultStats`.
    pub fn fault_total(&self) -> FaultStats {
        let mut total = self.end_fault;
        for r in &self.rounds {
            total.absorb(&r.fault);
        }
        total
    }

    /// The `run_start` line of this run.
    pub(crate) fn start_json(&self) -> Json {
        Json::obj([
            ("event", "run_start".into()),
            ("label", self.label.as_str().into()),
            ("actors", self.actors.into()),
            ("shards", self.shards.into()),
            ("bounds", self.bounds.iter().map(|&b| b.into()).collect()),
        ])
    }
}

/// The `run_end` line of a run that completed `rounds` rounds in
/// `wall_ns`, with its residual fault delta.
pub(crate) fn end_json(rounds: u64, wall_ns: u64, fault: &FaultStats) -> Json {
    let mut line = vec![
        ("event", "run_end".into()),
        ("rounds", rounds.into()),
        ("wall_ns", wall_ns.into()),
    ];
    line.extend(fault_json(fault).map(|f| ("fault", f)));
    Json::obj(line)
}

/// The counters of a `fault` object, in schema order. `degraded` is a
/// pipeline-level counter the kernel never sets, so it is not among them.
const BASE: [&str; 5] = ["delivered", "dropped", "duplicated", "delayed", "crashed"];
const ARQ: [&str; 3] = ["retransmitted", "acks", "dead_links"];

fn counters(f: &FaultStats) -> [u64; 8] {
    [
        f.delivered,
        f.dropped,
        f.duplicated,
        f.delayed,
        f.crashed,
        f.retransmitted,
        f.acks,
        f.dead_links,
    ]
}

/// A fault delta as its `fault` object, or `None` when every counter is
/// zero (field omitted). The ARQ trio is appended only when the ARQ
/// plane produced any of it.
fn fault_json(f: &FaultStats) -> Option<Json> {
    let values = counters(f);
    let arq = values[BASE.len()..].iter().any(|&n| n > 0);
    let keys = BASE.iter().chain(if arq { &ARQ[..] } else { &[] });
    let any = values.iter().any(|&n| n > 0);
    any.then(|| Json::obj(keys.zip(values).map(|(&k, n)| (k, n.into()))))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing field \"{key}\""))?
        .as_u64()
        .ok_or_else(|| format!("field \"{key}\" is not an unsigned integer"))
}

/// Reads a `fault` object: the base five are required, the ARQ trio is
/// all-or-none (the writer emits the three together, so a partial trio
/// means a malformed line).
fn parse_fault(fault: &Json) -> Result<FaultStats, String> {
    let present = ARQ.iter().filter(|k| fault.get(k).is_some()).count();
    if present != 0 && present != ARQ.len() {
        return Err(
            "fault object carries a partial ARQ trio (retransmitted/acks/dead_links \
             must appear together or not at all)"
                .into(),
        );
    }
    let read = |key| {
        if present > 0 || BASE.contains(&key) {
            req_u64(fault, key)
        } else {
            Ok(0)
        }
    };
    Ok(FaultStats {
        delivered: read("delivered")?,
        dropped: read("dropped")?,
        duplicated: read("duplicated")?,
        delayed: read("delayed")?,
        crashed: read("crashed")?,
        retransmitted: read("retransmitted")?,
        acks: read("acks")?,
        dead_links: read("dead_links")?,
        degraded: 0,
    })
}

/// Rejects the JSON the writer never emits — floats, negatives,
/// booleans and nulls — anywhere in a line, unknown fields included.
fn integers_only(v: &Json) -> Result<(), String> {
    match v {
        Json::F64(_) | Json::Bool(_) | Json::Null => Err(format!(
            "{} is not in the trace schema (objects, arrays, strings and unsigned \
             integers only)",
            v.to_compact()
        )),
        Json::Arr(items) => items.iter().try_for_each(integers_only),
        Json::Obj(members) => members.iter().try_for_each(|(_, v)| integers_only(v)),
        Json::Num(_) | Json::Str(_) => Ok(()),
    }
}

/// One trace line, read.
#[derive(Debug, PartialEq)]
enum Line {
    Start(TraceRun),
    Round(TraceRound),
    End(u64, u64, FaultStats),
}

fn parse_run_start(v: &Json) -> Result<TraceRun, String> {
    let label = v.get("label").and_then(Json::as_str);
    let run = TraceRun {
        label: label.ok_or("missing string field \"label\"")?.to_string(),
        actors: req_u64(v, "actors")?,
        shards: req_u64(v, "shards")?,
        bounds: (v.get("bounds").and_then(Json::as_arr))
            .ok_or("missing array field \"bounds\"")?
            .iter()
            .map(|b| b.as_u64().ok_or("non-integer bound"))
            .collect::<Result<_, _>>()?,
        ..TraceRun::default()
    };
    if run.bounds.len() as u64 != run.shards + 1 {
        return Err(format!(
            "bounds has {} offsets for {} shards (want shards + 1)",
            run.bounds.len(),
            run.shards
        ));
    }
    if run.bounds.first() != Some(&0) || run.bounds.last() != Some(&run.actors) {
        return Err("bounds must start at 0 and end at actors".into());
    }
    if run.bounds.windows(2).any(|w| w[0] > w[1]) {
        return Err("bounds must be non-decreasing".into());
    }
    Ok(run)
}

fn parse_round(v: &Json) -> Result<TraceRound, String> {
    let mut r = TraceRound {
        round: req_u64(v, "round")? as usize,
        wall_ns: req_u64(v, "wall_ns")?,
        messages: req_u64(v, "messages")?,
        volume: req_u64(v, "volume")?,
        peak_link: req_u64(v, "peak_link")?,
        active: req_u64(v, "active")?,
        exchange_ns: req_u64(v, "exchange_ns")?,
        delay_depth: req_u64(v, "delay_depth")?,
        fault: v
            .get("fault")
            .map_or(Ok(FaultStats::default()), parse_fault)?,
        ..TraceRound::default()
    };
    let array = |key| match v.get(key) {
        None => Ok(&[][..]),
        Some(a) => a.as_arr().ok_or(format!("field \"{key}\" is not an array")),
    };
    for item in array("shards")? {
        let sh = TraceShard {
            shard: req_u64(item, "shard")? as usize,
            wall_ns: req_u64(item, "wall_ns")?,
            messages: req_u64(item, "messages")?,
            volume: req_u64(item, "volume")?,
        };
        if let Some(prev) = r.shards.last().filter(|p| sh.shard <= p.shard) {
            return Err(format!(
                "shard indices must be strictly ascending ({} after {})",
                sh.shard, prev.shard
            ));
        }
        r.shards.push(sh);
    }
    for item in array("sizes")? {
        let (k, c) = match item.as_arr() {
            Some([k, c]) => (
                k.as_u64().ok_or("non-integer size bucket")?,
                c.as_u64().ok_or("non-integer size count")?,
            ),
            _ => return Err("size entry is not a [bucket, count] pair".into()),
        };
        if k >= 64 {
            return Err(format!("size bucket {k} out of range (0..64)"));
        }
        if c == 0 {
            return Err("size entry with zero count".into());
        }
        r.sizes.push((k as usize, c));
    }
    Ok(r)
}

/// Parses and validates one trace line against the schema. Unknown
/// fields are tolerated (the schema may grow); missing or mistyped
/// required fields are not, and no field may carry a float, negative,
/// boolean or null.
fn parse_line(line: &str) -> Result<Line, String> {
    let v = json::parse(line)?;
    integers_only(&v)?;
    match v.get("event").and_then(Json::as_str) {
        Some("run_start") => parse_run_start(&v).map(Line::Start),
        Some("round") => parse_round(&v).map(Line::Round),
        Some("run_end") => Ok(Line::End(
            req_u64(&v, "rounds")?,
            req_u64(&v, "wall_ns")?,
            v.get("fault")
                .map_or(Ok(FaultStats::default()), parse_fault)?,
        )),
        Some(other) => Err(format!("unknown event type \"{other}\"")),
        None => Err("missing string field \"event\"".into()),
    }
}

/// Parses a whole trace into runs: the exact inverse of what the
/// probes write. Blank lines are skipped; every other line must
/// validate. Rounds count up from 0 inside a run, and a `run_end`
/// reports exactly the run's number of rounds. A `run_start` before the
/// previous run's `run_end` closes that run as aborted (`end: None`),
/// which is what the probe emits when a run dies on a model error.
///
/// # Errors
///
/// Returns `(1-based line number, description)` of the first invalid
/// line or sequencing violation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRun>, (usize, String)> {
    let mut runs = Vec::new();
    let mut open: Option<TraceRun> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |msg: String| (i + 1, msg);
        let outside = || err("round or run_end event outside a run".into());
        match parse_line(line).map_err(err)? {
            Line::Start(run) => runs.extend(open.replace(run)),
            Line::Round(r) => {
                let run = open.as_mut().ok_or_else(outside)?;
                if r.round != run.rounds.len() {
                    let due = run.rounds.len();
                    return Err(err(format!("round {} where round {due} was due", r.round)));
                }
                run.rounds.push(r);
            }
            Line::End(rounds, wall_ns, fault) => {
                let mut run = open.take().ok_or_else(outside)?;
                if rounds != run.rounds.len() as u64 {
                    let seen = run.rounds.len();
                    return Err(err(format!(
                        "run_end reports {rounds} rounds after {seen} round events"
                    )));
                }
                run.end = Some((rounds, wall_ns));
                run.end_fault = fault;
                runs.push(run);
            }
        }
    }
    runs.extend(open);
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":8,\"shards\":2,\"bounds\":[0,4,8]}\n",
        "{\"event\":\"round\",\"round\":0,\"wall_ns\":100,\"messages\":6,\"volume\":60,\
         \"peak_link\":16,\"active\":8,\"exchange_ns\":10,\"delay_depth\":0,\
         \"shards\":[{\"shard\":0,\"wall_ns\":40,\"messages\":3,\"volume\":30},\
         {\"shard\":1,\"wall_ns\":20,\"messages\":3,\"volume\":30}],\"sizes\":[[4,6]]}\n",
        "{\"event\":\"round\",\"round\":1,\"wall_ns\":50,\"messages\":0,\"volume\":0,\
         \"peak_link\":0,\"active\":2,\"exchange_ns\":5,\"delay_depth\":1,\
         \"fault\":{\"delivered\":0,\"dropped\":2,\"duplicated\":0,\"delayed\":1,\"crashed\":0}}\n",
        "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":200}\n",
    );

    /// Writes `runs` the way the probes do.
    fn write(runs: &[TraceRun]) -> String {
        let mut out = String::new();
        for run in runs {
            let mut lines = vec![run.start_json()];
            lines.extend(run.rounds.iter().map(TraceRound::to_json));
            lines.extend(run.end.map(|(r, ns)| end_json(r, ns, &run.end_fault)));
            for line in lines {
                out += &(line.to_compact() + "\n");
            }
        }
        out
    }

    #[test]
    fn parses_and_groups_sample_trace() {
        let runs = parse_trace(SAMPLE).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.label, "congest");
        assert_eq!(run.bounds, vec![0, 4, 8]);
        assert_eq!(run.rounds.len(), 2);
        assert_eq!(run.end, Some((2, 200)));
        assert_eq!(run.total_wall_ns(), 200);
        // Shard walls 40 vs 20: max 40 / mean 30 - 1 = 1/3.
        assert!((run.rounds[0].shard_imbalance() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(run.size_hist().count(), 6);
        assert_eq!(run.size_hist().percentile(50.0), 31);
        assert_eq!(run.fault_total().dropped + run.fault_total().delayed, 3);
        let hot = run.hottest(1);
        assert_eq!(hot[0].round, 0);
    }

    #[test]
    fn writer_and_reader_are_inverse() {
        assert_eq!(write(&parse_trace(SAMPLE).unwrap()), SAMPLE);
        let aborted = TraceRun::start("mpc", 2, &[0, 2]);
        let mut done = TraceRun::start("congest", 4, &[0, 1, 4]);
        done.rounds.push(TraceRound {
            active: 4,
            fault: FaultStats {
                delivered: 3,
                acks: 1,
                ..FaultStats::default()
            },
            ..TraceRound::default()
        });
        done.end = Some((1, 9));
        done.end_fault.crashed = 1;
        let runs = vec![aborted, done];
        assert_eq!(parse_trace(&write(&runs)).unwrap(), runs);
    }

    #[test]
    fn shard_imbalance_falls_back_to_messages() {
        let shard = |messages| TraceShard {
            messages,
            ..TraceShard::default()
        };
        let mut r = TraceRound {
            shards: vec![shard(3), shard(1)],
            ..TraceRound::default()
        };
        // No wall times: max 3 / mean 2 - 1.
        assert!((r.shard_imbalance() - 0.5).abs() < 1e-9);
        r.shards.truncate(1);
        assert_eq!(r.shard_imbalance(), 0.0);
    }

    #[test]
    fn aborted_run_has_no_end() {
        let text = concat!(
            "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":2,\"shards\":1,\"bounds\":[0,2]}\n",
            "{\"event\":\"run_start\",\"label\":\"mpc\",\"actors\":2,\"shards\":1,\"bounds\":[0,2]}\n",
            "{\"event\":\"run_end\",\"rounds\":0,\"wall_ns\":5}\n",
        );
        let runs = parse_trace(text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].end, None);
        assert_eq!(runs[1].end, Some((0, 5)));
    }

    #[test]
    fn rejects_schema_violations() {
        // Not JSON at all.
        assert!(parse_line("nope").is_err());
        // Wrong event.
        assert!(parse_line("{\"event\":\"bogus\"}").is_err());
        // Missing required field.
        assert!(parse_line("{\"event\":\"run_end\",\"rounds\":1}").is_err());
        // Bad bounds arity.
        assert!(parse_line(
            "{\"event\":\"run_start\",\"label\":\"x\",\"actors\":4,\"shards\":2,\"bounds\":[0,4]}"
        )
        .is_err());
        // Floats are not in the schema.
        assert!(parse_line("{\"event\":\"run_end\",\"rounds\":1,\"wall_ns\":1.5}").is_err());
        // Nor floats, booleans, nulls or negatives in a field the
        // validator otherwise ignores.
        for extra in ["0.5", "true", "null", "-1", "[{\"x\":false}]"] {
            let line =
                format!("{{\"event\":\"run_end\",\"rounds\":1,\"wall_ns\":1,\"extra\":{extra}}}");
            assert!(parse_line(&line).is_err(), "accepted {line}");
        }
        // Shard order must ascend.
        let bad = "{\"event\":\"round\",\"round\":0,\"wall_ns\":1,\"messages\":0,\"volume\":0,\
                   \"peak_link\":0,\"active\":0,\"exchange_ns\":0,\"delay_depth\":0,\
                   \"shards\":[{\"shard\":1,\"wall_ns\":1,\"messages\":0,\"volume\":0},\
                   {\"shard\":0,\"wall_ns\":1,\"messages\":0,\"volume\":0}]}";
        assert!(parse_line(bad).is_err());
        // A fault object without the delivered count.
        let bad = "{\"event\":\"run_end\",\"rounds\":0,\"wall_ns\":1,\
                   \"fault\":{\"dropped\":1,\"duplicated\":0,\"delayed\":0,\"crashed\":0}}";
        assert!(parse_line(bad).is_err());

        // Sequencing: a round outside a run names its line.
        let round = |k: usize| {
            format!(
                "{{\"event\":\"round\",\"round\":{k},\"wall_ns\":1,\"messages\":0,\"volume\":0,\
                 \"peak_link\":0,\"active\":0,\"exchange_ns\":0,\"delay_depth\":0}}\n"
            )
        };
        assert_eq!(parse_trace(&round(0)).unwrap_err().0, 1);
        let start = "{\"event\":\"run_start\",\"label\":\"x\",\"actors\":1,\"shards\":1,\
                     \"bounds\":[0,1]}\n";
        let end = |rounds: usize| {
            format!("{{\"event\":\"run_end\",\"rounds\":{rounds},\"wall_ns\":1}}\n")
        };
        // A truncated head: the first round event is not round 0.
        let err = parse_trace(&format!("{start}{}{}", round(1), end(1))).unwrap_err();
        assert_eq!(err.0, 2, "{}", err.1);
        // A gap between rounds.
        let err = parse_trace(&format!("{start}{}{}", round(0), round(2))).unwrap_err();
        assert_eq!(err.0, 3, "{}", err.1);
        // run_end must report the run's number of round events.
        for rounds in [1, 3] {
            let err = parse_trace(&format!("{start}{}{}{}", round(0), round(1), end(rounds)))
                .unwrap_err();
            assert_eq!(err.0, 4, "{}", err.1);
        }
        assert!(parse_trace(&format!("{start}{}{}{}", round(0), round(1), end(2))).is_ok());
    }

    #[test]
    fn tolerates_unknown_fields() {
        let line = "{\"event\":\"run_end\",\"rounds\":1,\"wall_ns\":5,\"future_field\":7}";
        assert_eq!(
            parse_line(line).unwrap(),
            Line::End(1, 5, FaultStats::default())
        );
    }

    #[test]
    fn parses_arq_fault_trio() {
        // A reliable-executor trace: the fault objects carry the ARQ
        // trio, on round events and on the run_end residual alike.
        let text = concat!(
            "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":4,\"shards\":1,\"bounds\":[0,4]}\n",
            "{\"event\":\"round\",\"round\":0,\"wall_ns\":10,\"messages\":4,\"volume\":40,\
             \"peak_link\":10,\"active\":4,\"exchange_ns\":1,\"delay_depth\":0,\
             \"fault\":{\"delivered\":2,\"dropped\":2,\"duplicated\":0,\"delayed\":0,\"crashed\":0,\
             \"retransmitted\":2,\"acks\":3,\"dead_links\":0}}\n",
            "{\"event\":\"round\",\"round\":1,\"wall_ns\":10,\"messages\":2,\"volume\":20,\
             \"peak_link\":10,\"active\":4,\"exchange_ns\":1,\"delay_depth\":0,\
             \"fault\":{\"delivered\":1,\"dropped\":1,\"duplicated\":0,\"delayed\":0,\"crashed\":0,\
             \"retransmitted\":1,\"acks\":2,\"dead_links\":1}}\n",
            "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":30,\
             \"fault\":{\"delivered\":0,\"dropped\":0,\"duplicated\":0,\"delayed\":0,\"crashed\":1,\
             \"retransmitted\":0,\"acks\":1,\"dead_links\":0}}\n",
        );
        let runs = parse_trace(text).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.rounds[0].fault.retransmitted, 2);
        assert_eq!(run.end_fault.crashed, 1);
        let total = run.fault_total();
        assert_eq!(
            (total.retransmitted, total.acks, total.dead_links),
            (3, 6, 1)
        );
        // The run_end residual counts too.
        assert_eq!((total.delivered, total.dropped, total.crashed), (3, 3, 1));
    }

    #[test]
    fn rejects_partial_arq_trio() {
        let line = "{\"event\":\"round\",\"round\":0,\"wall_ns\":1,\"messages\":0,\"volume\":0,\
                    \"peak_link\":0,\"active\":0,\"exchange_ns\":0,\"delay_depth\":0,\
                    \"fault\":{\"delivered\":0,\"dropped\":1,\"duplicated\":0,\"delayed\":0,\
                    \"crashed\":0,\"retransmitted\":1}}";
        let err = parse_line(line).unwrap_err();
        assert!(err.contains("partial ARQ trio"), "got: {err}");
    }
}
