//! The benchmark's vocabulary: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root restates these
//! tables for the driver; a unit test keeps the two in step.

use crate::json::quote;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen (per-layer metrics carry no bound).
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "simlog-n31",
        "n=31 pipelined log on simnet, unbatched echoes: the n^2 echo flood, where simnet dispatch and View/gate/IDB handler cost show",
    ),
    (
        "simlog-n31-agg",
        "same log with echo aggregation: 10x fewer deliveries but as many on_echo calls, so dispatch work is bypassed and handler+aggregator dominate",
    ),
    (
        "chaoslog-n13",
        "n=13 durable sequential log, one EchoPoison replica, a crash-restart, client queues with 20% adjacent swaps: the paper's 1-step/2-step/fallback mix plus catch-up",
    ),
    (
        "campaign-std",
        "the paper's own experiment: single-shot DEX over 4 adversaries x clean+MATRIX+crash-restart x f=0..t; per-run construction, no log layers",
    ),
    (
        "netlog-n7-w1",
        "7 in-process replicas over localhost TCP, WAL synced per commit in memory, window 1: latency-bound, one echo round + decode + handler per slot",
    ),
    (
        "netlog-n7-w8",
        "same cluster, window 8: throughput-bound on shared cores, where writer-thread, codec and handler work show and latency changes do not",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics: defined on every workload, printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("committed_values_per_s", "values/s", Higher, 0.25),
    e2e("msgs_per_value", "msgs/value", Lower, 0.05),
    e2e("one_step_share", "ratio", Higher, 0.15),
    e2e("fast_share", "ratio", Higher, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics (`layer.metric`), printed by `--trace 1`. A metric
/// reads 0 on a workload that never enters its layer.
pub const PER_LAYER: &[MetricDef] = &[
    // Probes: timed loops over public functions, same on every workload.
    layer("types.view_set_ns", "ns", Lower),
    layer("types.view_top2_ns", "ns", Lower),
    layer("conditions.gate_try_ns", "ns", Lower),
    layer("conditions.gate_skip_ratio", "ratio", Higher),
    layer("broadcast.idb_on_message_ns", "ns", Lower),
    layer("broadcast.agg_offer_ns", "ns", Lower),
    layer("broadcast.agg_flush_ns", "ns", Lower),
    layer("underlying.oracle_round_us", "us", Lower),
    layer("core.dex_on_message_ns", "ns", Lower),
    layer("core.dex_recycle_ns", "ns", Lower),
    layer("replication.mux_checkout_live_ns", "ns", Lower),
    layer("replication.mux_recycle_ns", "ns", Lower),
    layer("replication.log_commit_ns", "ns", Lower),
    layer("replication.wal_append_sync_us", "us", Lower),
    layer("replication.solo_slot_us", "us", Lower),
    layer("netd.codec_encode_ns_echo", "ns", Lower),
    layer("netd.codec_decode_ns_echo", "ns", Lower),
    layer("netd.codec_encode_ns_batch", "ns", Lower),
    layer("netd.codec_decode_ns_batch", "ns", Lower),
    layer("netd.frame_encode_ns", "ns", Lower),
    layer("netd.frame_parse_ns", "ns", Lower),
    layer("netd.mesh_oneway_us_p50", "us", Lower),
    layer("netd.mesh_frames_per_s", "1/s", Higher),
    layer("harness.run_instance_us", "us", Lower),
    layer("harness.aggregate_ms", "ms", Lower),
    layer("workloads.propose_ns", "ns", Lower),
    // Counts and spans of the workload's own (traced) run.
    layer("runtime.bytes_per_value", "bytes/value", Lower),
    layer("simnet.values_per_ktick", "values/ktick", Higher),
    layer("simnet.dispatch_ns_per_delivery", "ns", Lower),
    layer("simnet.payload_clones", "count", Lower),
    layer("broadcast.echoes_per_batch", "count", Higher),
    layer("replication.handler_share", "ratio", Higher),
    layer("replication.recycled_per_slot", "count", Higher),
    layer("replication.uc_coalesced_per_slot", "count", Higher),
    layer("replication.wal_syncs_per_slot", "count", Lower),
    layer("replication.wal_replay_us_per_krecord", "us", Lower),
    layer("harness.decide_ticks_p50", "ticks", Lower),
    layer("harness.decide_ticks_p99", "ticks", Lower),
    layer("harness.jobs_speedup", "ratio", Higher),
    layer("netd.slot_commit_ms_p50", "ms", Lower),
    layer("netd.slot_commit_ms_p99", "ms", Lower),
    layer("netd.pump_busy_share", "ratio", Lower),
    layer("netd.nonhandler_us_per_delivery", "us", Lower),
    layer("netd.filewal_values_per_s", "values/s", Higher),
    layer("netd.wal_share", "ratio", Lower),
    layer("netd.connect_ms", "ms", Lower),
    layer("netd.decode_failures", "count", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.span_coverage", "ratio", Higher),
];

/// The driver's naming rule: starts with a letter or digit, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `name` is a workload this benchmark runs.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// Seconds one run measures for; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json` as these tables spell it (`dex-benchmark manifest`).
pub fn manifest_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let metric = |d: &MetricDef, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(d.name),
            quote(d.unit),
            quote(d.better.label())
        )
    };
    let list = |defs: &[MetricDef], bounded: bool| {
        defs.iter()
            .map(|d| metric(d, bounded))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END, true),
        list(PER_LAYER, false)
    )
}

/// Whether an end-to-end metric is a count that repeats exactly from run to
/// run of one seed on this workload: the counts of the simulator workloads
/// do; anything on real threads and sockets, and every time, does not.
pub fn repeats_exactly(workload: &str, metric: &str) -> bool {
    !workload.starts_with("netlog")
        && matches!(metric, "msgs_per_value" | "one_step_share" | "fast_share")
}

/// Metric values by name. A `BTreeMap` so every listing is in one order.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result object the driver reads off the last stdout line.
/// Every metric of `defs` must be present in `values` and finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values[d.name];
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn names_follow_the_drivers_rule() {
        for good in ["a", "simlog-n31", "types.view_set_ns", "9lives", "A_b.c-d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "", "-lead", ".lead", "_lead", "sp ace", "sl/ash", "pct%", "é", &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    m.get("better").and_then(Json::as_str).unwrap().to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            text,
            manifest_json(),
            "regenerate with `dex-benchmark manifest`"
        );
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(RUN_SECONDS))
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap().to_string(),
                    w.get("why").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        let table = |defs: &[MetricDef], bounded: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.label().to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER, false));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut values = Values::new();
        for d in END_TO_END {
            values.insert(d.name, 1.25);
        }
        let line = result_json(true, 10, 0, END_TO_END, &values);
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }
}
