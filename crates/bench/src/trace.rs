//! Reader, validator, and analysis helpers for the kernel's JSONL
//! telemetry traces (the `trace_view` binary is a thin CLI over this
//! module).
//!
//! The `pga-runtime` telemetry plane streams one JSON object per event
//! — `run_start`, `round`, `run_end` — to the path named by `PGA_TRACE`
//! (see `pga_runtime::probe::JsonlProbe` for the schema). This module
//! parses those lines back with the workspace's one JSON reader,
//! `pga_runtime::json`, validates them against the schema, groups them
//! into [`TraceRun`]s, and provides the summaries `trace_view` renders:
//! top-k hottest rounds, the per-round shard-imbalance timeline,
//! log-bucket histogram percentiles, and a chrome://tracing export.

use pga_congest::SizeHist;
use pga_runtime::json::{self, Json};

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

/// The fault-delta object of a `round` (or residual `run_end`) event,
/// omitted from the JSONL when all zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFault {
    /// Messages dropped this round.
    pub dropped: u64,
    /// Messages duplicated this round.
    pub duplicated: u64,
    /// Messages delayed this round.
    pub delayed: u64,
    /// Actors crashed this round.
    pub crashed: u64,
    /// Data frames retransmitted by the reliable executor this round
    /// (0 on raw-path traces, which omit the whole ARQ trio).
    pub retransmitted: u64,
    /// Cumulative ack frames the reliable executor transmitted this
    /// round.
    pub acks: u64,
    /// Links declared dead this round (retry-budget exhaustion or a
    /// crash-induced sever).
    pub dead_links: u64,
}

/// One `round` event of a trace.
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
    /// Exchange-phase wall time, ns.
    pub exchange_ns: u64,
    /// Delay-queue depth after the exchange (fault runs only).
    pub delay_depth: u64,
    /// Per-shard records, strictly ascending shard index.
    pub shards: Vec<TraceShard>,
    /// Non-empty size-histogram buckets as `(bucket, count)` pairs.
    pub sizes: Vec<(usize, u64)>,
    /// Fault delta, when the round had fault events.
    pub fault: Option<TraceFault>,
}

impl TraceRound {
    /// The round's shard imbalance: `max/mean - 1` over per-shard wall
    /// times (falling back to message counts when the wall times are
    /// all zero), or 0.0 with fewer than two shard records — the same
    /// definition as `pga_runtime::RoundTelemetry::shard_imbalance`.
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

    /// This round's size histogram, rehydrated into a [`SizeHist`].
    pub fn size_hist(&self) -> SizeHist {
        let mut h = SizeHist::default();
        for &(k, c) in &self.sizes {
            h.buckets[k] += c;
        }
        h
    }
}

/// One run of a trace file: a `run_start` event, its rounds, and (for
/// completed runs) the `run_end` record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRun {
    /// The emitting model family (`"congest"`, `"mpc"`, …).
    pub label: String,
    /// Actors in the run.
    pub actors: u64,
    /// Shard count of the partition.
    pub shards: u64,
    /// Shard boundary offsets.
    pub bounds: Vec<u64>,
    /// Round records in execution order.
    pub rounds: Vec<TraceRound>,
    /// `(rounds, wall_ns)` of the `run_end` event; `None` when the run
    /// aborted with a model error before completing.
    pub end: Option<(u64, u64)>,
    /// The residual fault delta of the `run_end` record (crashes
    /// activated by the final quiescence check, or the reliable
    /// executor's trailing ack drain), when it carried one.
    pub end_fault: Option<TraceFault>,
}

impl TraceRun {
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

    /// Every fault delta of the run, in order: each round's (when
    /// present), then the `run_end` residual (when present).
    pub fn fault_deltas(&self) -> impl Iterator<Item = &TraceFault> {
        self.rounds
            .iter()
            .filter_map(|r| r.fault.as_ref())
            .chain(self.end_fault.as_ref())
    }

    /// Total faults recorded across all rounds and the `run_end`
    /// residual (dropped + duplicated + delayed + crashed).
    pub fn total_faults(&self) -> u64 {
        self.fault_deltas()
            .map(|f| f.dropped + f.duplicated + f.delayed + f.crashed)
            .sum()
    }

    /// `(retransmitted, acks, dead_links)` totals over the whole run —
    /// all zero on raw-path traces, which never emit the ARQ trio.
    pub fn arq_totals(&self) -> (u64, u64, u64) {
        self.fault_deltas().fold((0, 0, 0), |(r, a, d), f| {
            (r + f.retransmitted, a + f.acks, d + f.dead_links)
        })
    }
}

/// One event of a trace line, in schema terms.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A `run_start` line.
    RunStart {
        /// Emitting model family.
        label: String,
        /// Actors in the run.
        actors: u64,
        /// Shard count.
        shards: u64,
        /// Shard boundary offsets.
        bounds: Vec<u64>,
    },
    /// A `round` line.
    Round(TraceRound),
    /// A `run_end` line.
    RunEnd {
        /// Rounds the run executed.
        rounds: u64,
        /// Whole-run wall time, ns.
        wall_ns: u64,
        /// Residual fault delta (crashes from the final quiescence
        /// check, the reliable executor's trailing ack drain).
        fault: Option<TraceFault>,
    },
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing field \"{key}\""))?
        .as_u64()
        .ok_or_else(|| format!("field \"{key}\" is not an unsigned integer"))
}

/// Parses a fault-delta object. The base quartet is required; the ARQ
/// trio (`retransmitted`/`acks`/`dead_links`) is optional but
/// all-or-none — the reliable executor always emits the three together,
/// so a partial trio means a malformed (hand-edited or truncated) line.
fn parse_fault(fault: &Json) -> Result<TraceFault, String> {
    let trio = ["retransmitted", "acks", "dead_links"];
    let present = trio.iter().filter(|k| fault.get(k).is_some()).count();
    if present != 0 && present != trio.len() {
        return Err(
            "fault object carries a partial ARQ trio (retransmitted/acks/dead_links \
             must appear together or not at all)"
                .into(),
        );
    }
    let arq = present == trio.len();
    let trio_u64 = |key| if arq { req_u64(fault, key) } else { Ok(0) };
    Ok(TraceFault {
        dropped: req_u64(fault, "dropped")?,
        duplicated: req_u64(fault, "duplicated")?,
        delayed: req_u64(fault, "delayed")?,
        crashed: req_u64(fault, "crashed")?,
        retransmitted: trio_u64("retransmitted")?,
        acks: trio_u64("acks")?,
        dead_links: trio_u64("dead_links")?,
    })
}

/// Rejects the JSON the probe never emits — floats, negatives,
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

/// Parses and validates one trace line against the JSONL schema.
///
/// Unknown fields are tolerated (the schema may grow), missing or
/// mistyped required fields are not, and no field, known or unknown,
/// may carry a float, negative, boolean or null: the probe never emits
/// them.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let v = json::parse(line)?;
    integers_only(&v)?;
    let event = v
        .get("event")
        .and_then(Json::as_str)
        .ok_or("missing string field \"event\"")?;
    match event {
        "run_start" => {
            let label = v
                .get("label")
                .and_then(Json::as_str)
                .ok_or("missing string field \"label\"")?
                .to_string();
            let actors = req_u64(&v, "actors")?;
            let shards = req_u64(&v, "shards")?;
            let bounds: Vec<u64> = v
                .get("bounds")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"bounds\"")?
                .iter()
                .map(|b| b.as_u64().ok_or("non-integer bound"))
                .collect::<Result<_, _>>()?;
            if bounds.len() as u64 != shards + 1 {
                return Err(format!(
                    "bounds has {} offsets for {} shards (want shards + 1)",
                    bounds.len(),
                    shards
                ));
            }
            if bounds.first() != Some(&0) || bounds.last() != Some(&actors) {
                return Err("bounds must start at 0 and end at actors".into());
            }
            if bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err("bounds must be non-decreasing".into());
            }
            Ok(TraceEvent::RunStart {
                label,
                actors,
                shards,
                bounds,
            })
        }
        "round" => {
            let mut r = TraceRound {
                round: req_u64(&v, "round")? as usize,
                wall_ns: req_u64(&v, "wall_ns")?,
                messages: req_u64(&v, "messages")?,
                volume: req_u64(&v, "volume")?,
                peak_link: req_u64(&v, "peak_link")?,
                active: req_u64(&v, "active")?,
                exchange_ns: req_u64(&v, "exchange_ns")?,
                delay_depth: req_u64(&v, "delay_depth")?,
                ..TraceRound::default()
            };
            if let Some(shards) = v.get("shards") {
                let items = shards.as_arr().ok_or("field \"shards\" is not an array")?;
                for item in items {
                    let sh = TraceShard {
                        shard: req_u64(item, "shard")? as usize,
                        wall_ns: req_u64(item, "wall_ns")?,
                        messages: req_u64(item, "messages")?,
                        volume: req_u64(item, "volume")?,
                    };
                    if let Some(prev) = r.shards.last() {
                        if sh.shard <= prev.shard {
                            return Err(format!(
                                "shard indices must be strictly ascending ({} after {})",
                                sh.shard, prev.shard
                            ));
                        }
                    }
                    r.shards.push(sh);
                }
            }
            if let Some(sizes) = v.get("sizes") {
                let items = sizes.as_arr().ok_or("field \"sizes\" is not an array")?;
                for item in items {
                    let pair = item.as_arr().ok_or("size entry is not a pair")?;
                    let (k, c) = match pair {
                        [k, c] => (
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
            }
            if let Some(fault) = v.get("fault") {
                r.fault = Some(parse_fault(fault)?);
            }
            Ok(TraceEvent::Round(r))
        }
        "run_end" => Ok(TraceEvent::RunEnd {
            rounds: req_u64(&v, "rounds")?,
            wall_ns: req_u64(&v, "wall_ns")?,
            fault: v.get("fault").map(parse_fault).transpose()?,
        }),
        other => Err(format!("unknown event type \"{other}\"")),
    }
}

/// Parses a whole trace file into runs. Blank lines are skipped; every
/// other line must validate ([`parse_line`]). Round and `run_end`
/// events must follow a `run_start`; a new `run_start` before the
/// previous run's `run_end` closes that run as aborted (`end: None`) —
/// exactly what the probe emits when a run dies on a model error.
///
/// # Errors
///
/// Returns `(1-based line number, description)` of the first invalid
/// line or sequencing violation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRun>, (usize, String)> {
    let mut runs: Vec<TraceRun> = Vec::new();
    let mut open = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        match parse_line(line).map_err(|e| (lineno, e))? {
            TraceEvent::RunStart {
                label,
                actors,
                shards,
                bounds,
            } => {
                runs.push(TraceRun {
                    label,
                    actors,
                    shards,
                    bounds,
                    ..TraceRun::default()
                });
                open = true;
            }
            TraceEvent::Round(r) => {
                if !open {
                    return Err((lineno, "round event outside a run".into()));
                }
                let run = runs.last_mut().unwrap();
                if let Some(prev) = run.rounds.last() {
                    if r.round != prev.round + 1 {
                        return Err((
                            lineno,
                            format!("round {} after round {}", r.round, prev.round),
                        ));
                    }
                }
                run.rounds.push(r);
            }
            TraceEvent::RunEnd {
                rounds,
                wall_ns,
                fault,
            } => {
                if !open {
                    return Err((lineno, "run_end event outside a run".into()));
                }
                let run = runs.last_mut().unwrap();
                run.end = Some((rounds, wall_ns));
                run.end_fault = fault;
                open = false;
            }
        }
    }
    Ok(runs)
}

fn us(ns: u64) -> Json {
    Json::F64(ns as f64 / 1e3)
}

/// Renders `runs` as a chrome://tracing (and Perfetto) compatible JSON
/// document of complete (`"ph":"X"`) events: rounds and exchanges on
/// track 0 of each run's process, shard step phases on tracks `1 + s`.
/// Timestamps are synthesized by laying the rounds end to end (the
/// trace records durations, not absolute times).
pub fn chrome_trace(runs: &[TraceRun]) -> String {
    let mut events = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        let pid = ri + 1;
        let name = format!(
            "{} run {pid} ({} actors, {} shards)",
            run.label, run.actors, run.shards
        );
        events.push(Json::obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", Json::obj([("name", name.as_str().into())])),
        ]));
        let complete = |name: &str, cat: &str, ts: u64, dur: u64, tid: usize, args: Json| {
            Json::obj([
                ("name", name.into()),
                ("cat", cat.into()),
                ("ph", "X".into()),
                ("ts", us(ts)),
                ("dur", us(dur)),
                ("pid", pid.into()),
                ("tid", tid.into()),
                ("args", args),
            ])
        };
        let mut t = 0u64;
        for r in &run.rounds {
            let name = format!("round {}", r.round);
            let args = [
                ("messages", r.messages),
                ("volume", r.volume),
                ("active", r.active),
            ];
            let args = Json::obj(args.map(|(k, v)| (k, v.into())));
            events.push(complete(&name, "round", t, r.wall_ns, 0, args));
            for sh in &r.shards {
                let name = format!("shard {}", sh.shard);
                let args = [("messages", sh.messages), ("volume", sh.volume)];
                let args = Json::obj(args.map(|(k, v)| (k, v.into())));
                events.push(complete(&name, "shard", t, sh.wall_ns, 1 + sh.shard, args));
            }
            if r.exchange_ns > 0 {
                let ts = t + r.wall_ns.saturating_sub(r.exchange_ns);
                events.push(complete(
                    "exchange",
                    "exchange",
                    ts,
                    r.exchange_ns,
                    0,
                    Json::obj([]),
                ));
            }
            t += r.wall_ns.max(1);
        }
    }
    let doc = Json::obj([
        ("displayTimeUnit", "ns".into()),
        ("traceEvents", Json::Arr(events)),
    ]);
    doc.to_compact() + "\n"
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
         \"fault\":{\"dropped\":2,\"duplicated\":0,\"delayed\":1,\"crashed\":0}}\n",
        "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":200}\n",
    );

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
        assert_eq!(run.total_faults(), 3);
        let hot = run.hottest(1);
        assert_eq!(hot[0].round, 0);
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
        // Sequencing: a round outside a run names its line.
        let err = parse_trace(
            "{\"event\":\"round\",\"round\":0,\"wall_ns\":1,\"messages\":0,\"volume\":0,\
             \"peak_link\":0,\"active\":0,\"exchange_ns\":0,\"delay_depth\":0}",
        )
        .unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn tolerates_unknown_fields() {
        let line = "{\"event\":\"run_end\",\"rounds\":1,\"wall_ns\":5,\"future_field\":7}";
        assert_eq!(
            parse_line(line).unwrap(),
            TraceEvent::RunEnd {
                rounds: 1,
                wall_ns: 5,
                fault: None
            }
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
             \"fault\":{\"dropped\":2,\"duplicated\":0,\"delayed\":0,\"crashed\":0,\
             \"retransmitted\":2,\"acks\":3,\"dead_links\":0}}\n",
            "{\"event\":\"round\",\"round\":1,\"wall_ns\":10,\"messages\":2,\"volume\":20,\
             \"peak_link\":10,\"active\":4,\"exchange_ns\":1,\"delay_depth\":0,\
             \"fault\":{\"dropped\":1,\"duplicated\":0,\"delayed\":0,\"crashed\":0,\
             \"retransmitted\":1,\"acks\":2,\"dead_links\":1}}\n",
            "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":30,\
             \"fault\":{\"dropped\":0,\"duplicated\":0,\"delayed\":0,\"crashed\":1,\
             \"retransmitted\":0,\"acks\":1,\"dead_links\":0}}\n",
        );
        let runs = parse_trace(text).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.rounds[0].fault.unwrap().retransmitted, 2);
        assert_eq!(run.end_fault.unwrap().crashed, 1);
        assert_eq!(run.arq_totals(), (3, 6, 1));
        // Base quartet total includes the run_end residual crash.
        assert_eq!(run.total_faults(), 4);
    }

    #[test]
    fn rejects_partial_arq_trio() {
        let line = "{\"event\":\"round\",\"round\":0,\"wall_ns\":1,\"messages\":0,\"volume\":0,\
                    \"peak_link\":0,\"active\":0,\"exchange_ns\":0,\"delay_depth\":0,\
                    \"fault\":{\"dropped\":1,\"duplicated\":0,\"delayed\":0,\"crashed\":0,\
                    \"retransmitted\":1}}";
        let err = parse_line(line).unwrap_err();
        assert!(err.contains("partial ARQ trio"), "got: {err}");
    }

    #[test]
    fn chrome_export_parses_back() {
        let runs = parse_trace(SAMPLE).unwrap();
        let doc = json::parse(&chrome_trace(&runs)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            names,
            [
                "process_name",
                "round 0",
                "shard 0",
                "shard 1",
                "exchange",
                "round 1",
                "exchange"
            ]
        );
        // Timestamps are fractional microseconds: round 1 starts after
        // round 0's 100 ns.
        assert_eq!(events[5].get("ts"), Some(&Json::F64(0.1)));
    }

    #[test]
    fn chrome_export_escapes_the_run_label() {
        let label = "a\"b\\c";
        let line = format!(
            "{{\"event\":\"run_start\",\"label\":{},\"actors\":2,\"shards\":1,\"bounds\":[0,2]}}",
            Json::from(label).to_compact()
        );
        let runs = parse_trace(&line).unwrap();
        assert_eq!(runs[0].label, label);
        let doc = json::parse(&chrome_trace(&runs)).expect("chrome export is valid JSON");
        let process = &doc.get("traceEvents").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            process.get("args").and_then(|a| a.get("name")),
            Some(&Json::from("a\"b\\c run 1 (2 actors, 1 shards)"))
        );
    }
}
