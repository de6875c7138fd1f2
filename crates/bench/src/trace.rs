//! Analysis helpers for the kernel's JSONL telemetry traces (the
//! `trace_view` binary is a thin CLI over this module).
//!
//! The trace record ([`TraceRun`], [`TraceRound`], [`TraceShard`]) and
//! its JSONL schema live in `pga_runtime::trace`, next to the probes
//! that write it; this module re-exports them with the reader
//! [`parse_trace`], and adds the chrome://tracing export.

use pga_runtime::json::Json;
pub use pga_runtime::trace::{parse_trace, TraceRound, TraceRun, TraceShard};

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
    use pga_runtime::json;

    const SAMPLE: &str = concat!(
        "{\"event\":\"run_start\",\"label\":\"congest\",\"actors\":8,\"shards\":2,\"bounds\":[0,4,8]}\n",
        "{\"event\":\"round\",\"round\":0,\"wall_ns\":100,\"messages\":6,\"volume\":60,\
         \"peak_link\":16,\"active\":8,\"exchange_ns\":10,\"delay_depth\":0,\
         \"shards\":[{\"shard\":0,\"wall_ns\":40,\"messages\":3,\"volume\":30},\
         {\"shard\":1,\"wall_ns\":20,\"messages\":3,\"volume\":30}],\"sizes\":[[4,6]]}\n",
        "{\"event\":\"round\",\"round\":1,\"wall_ns\":50,\"messages\":0,\"volume\":0,\
         \"peak_link\":0,\"active\":2,\"exchange_ns\":5,\"delay_depth\":1}\n",
        "{\"event\":\"run_end\",\"rounds\":2,\"wall_ns\":200}\n",
    );

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
