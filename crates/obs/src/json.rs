//! The workspace's one JSON writer: [`string`] and [`list`], which every
//! artifact emitter (traces, campaign reports, netd cells) writes through,
//! and [`render`], the checked-run trace artifact.
//!
//! Hand-rolled on purpose: the artifact must be **byte-identical** for the
//! same seed, so every key is emitted in a fixed order, all numbers are
//! integers (no float formatting), value codes are fixed-width hex strings,
//! and nothing depends on hash-map iteration order. One event per line
//! keeps the artifact diffable.

use crate::checker::{CheckReport, RunTrace, SchemeRules};
use crate::event::{Event, EventKind};
use core::fmt::Write as _;

/// Writes `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes each of `items` through `item`, with `sep` between consecutive
/// ones: the one separator loop every emitter shares.
pub fn list<I: IntoIterator>(
    out: &mut String,
    sep: &str,
    items: I,
    mut item: impl FnMut(&mut String, I::Item),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        item(out, x);
    }
}

/// Writes a value code as a fixed-width hex JSON string.
fn code(out: &mut String, c: u64) {
    let _ = write!(out, "\"{c:016x}\"");
}

fn event(out: &mut String, e: &Event) {
    let _ = write!(out, "{{\"at\":{},\"depth\":{},\"kind\":", e.at, e.depth);
    match e.kind {
        EventKind::Send { to } => {
            let _ = write!(out, "\"send\",\"to\":{to}");
        }
        EventKind::Deliver { from } => {
            let _ = write!(out, "\"deliver\",\"from\":{from}");
        }
        EventKind::ViewSet {
            view,
            origin,
            code: c,
        } => {
            let _ = write!(
                out,
                "\"view_set\",\"view\":\"{}\",\"origin\":{},\"code\":",
                view.label(),
                origin
            );
            code(out, c);
        }
        EventKind::Predicate {
            pred,
            held,
            len,
            top_count,
            second_count,
            top_code,
        } => {
            let _ = write!(
                out,
                "\"pred\",\"pred\":\"{}\",\"held\":{},\"len\":{},\"top\":{},\"second\":{},\"top_code\":",
                pred.label(),
                held,
                len,
                top_count,
                second_count
            );
            code(out, top_code);
        }
        EventKind::Decide { scheme, code: c } => {
            let _ = write!(
                out,
                "\"decide\",\"scheme\":\"{}\",\"code\":",
                scheme.label()
            );
            code(out, c);
        }
        EventKind::IdbInit { origin, code: c } => {
            let _ = write!(out, "\"idb_init\",\"origin\":{origin},\"code\":");
            code(out, c);
        }
        EventKind::IdbEcho { origin, code: c } => {
            let _ = write!(out, "\"idb_echo\",\"origin\":{origin},\"code\":");
            code(out, c);
        }
        EventKind::IdbAccept { origin, code: c } => {
            let _ = write!(out, "\"idb_accept\",\"origin\":{origin},\"code\":");
            code(out, c);
        }
        EventKind::Fallback { code: c } => {
            out.push_str("\"fallback\",\"code\":");
            code(out, c);
        }
        EventKind::Commit { slot, code: c } => {
            let _ = write!(out, "\"commit\",\"slot\":{slot},\"code\":");
            code(out, c);
        }
        EventKind::LinkDrop { to } => {
            let _ = write!(out, "\"link_drop\",\"to\":{to}");
        }
        EventKind::LinkDup { to } => {
            let _ = write!(out, "\"link_dup\",\"to\":{to}");
        }
        EventKind::PartitionOpen { id } => {
            let _ = write!(out, "\"partition_open\",\"id\":{id}");
        }
        EventKind::PartitionHeal { id } => {
            let _ = write!(out, "\"partition_heal\",\"id\":{id}");
        }
        EventKind::Crash => {
            out.push_str("\"crash\"");
        }
        EventKind::Recover => {
            out.push_str("\"recover\"");
        }
        EventKind::CatchUp { slot, code: c } => {
            let _ = write!(out, "\"catch_up\",\"slot\":{slot},\"code\":");
            code(out, c);
        }
        EventKind::Resend { to } => {
            let _ = write!(out, "\"resend\",\"to\":{to}");
        }
        EventKind::SlotPropose { slot, floor } => {
            let _ = write!(out, "\"slot_propose\",\"slot\":{slot},\"floor\":{floor}");
        }
        EventKind::SlotReuse { slot, freed } => {
            let _ = write!(out, "\"slot_reuse\",\"slot\":{slot},\"freed\":{freed}");
        }
    }
    out.push('}');
}

/// Renders the full artifact: metadata, checker verdict, per-process event
/// logs. Same input ⇒ byte-identical output.
pub fn render(run: &RunTrace, report: &CheckReport) -> String {
    let mut out = String::new();
    out.push_str("{\n\"schema\":\"dex-trace/1\",\n");
    let _ = write!(
        out,
        "\"seed\":{},\n\"n\":{},\n\"t\":{},\n\"algo\":",
        run.meta.seed, run.meta.n, run.meta.t
    );
    string(&mut out, &run.meta.algo);
    let _ = write!(out, ",\n\"rules\":\"{}\"", run.meta.rules.label());
    if let SchemeRules::Privileged { m_code } = run.meta.rules {
        out.push_str(",\n\"m_code\":");
        code(&mut out, m_code);
    }
    out.push_str(",\n\"faulty\":[");
    list(&mut out, ",", &run.meta.faulty, |out, f| {
        let _ = write!(out, "{f}");
    });
    out.push(']');
    // The chaos block is emitted only for chaos runs: fault-free artifacts
    // keep their pre-chaos byte layout exactly.
    if let Some(chaos) = &run.meta.chaos {
        let _ = write!(
            out,
            ",\n\"chaos\":{{\"last_heal\":{},\"eventually_clean\":{},\"crashes\":[",
            chaos.last_heal, chaos.eventually_clean
        );
        list(&mut out, ",", &chaos.crashes, |out, (p, from, until)| {
            let _ = write!(out, "{{\"process\":{p},\"from\":{from},\"until\":");
            match until {
                Some(u) => {
                    let _ = write!(out, "{u}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        });
        out.push_str("]}");
    }
    // Likewise the pipeline block: only pipelined replication runs carry
    // it (window/batch semantics plus the run's wire-byte accounting), so
    // sequential artifacts keep their pre-pipeline byte layout exactly.
    if let Some(pipeline) = &run.meta.pipeline {
        let _ = write!(
            out,
            ",\n\"pipeline\":{{\"window\":{},\"batch\":{},\"bytes_on_wire\":{},\
             \"sent_init\":{},\"sent_echo\":{},\"sent_batch\":{},\"sent_other\":{},\
             \"echoes_batched\":{}}}",
            pipeline.window,
            pipeline.batch,
            pipeline.bytes_on_wire,
            pipeline.sent_by_class[0],
            pipeline.sent_by_class[1],
            pipeline.sent_by_class[2],
            pipeline.sent_by_class[3],
            pipeline.echoes_batched
        );
    }
    out.push_str(",\n\"legend\":[");
    list(&mut out, ",", &run.meta.legend, |out, (c, label)| {
        out.push_str("{\"code\":");
        code(out, *c);
        out.push_str(",\"value\":");
        string(out, label);
        out.push('}');
    });
    let _ = write!(
        out,
        "],\n\"check\":{{\"ok\":{},\"checks\":[",
        report.is_ok()
    );
    list(&mut out, ",", &report.checks, |out, (invariant, count)| {
        let _ = write!(out, "{{\"invariant\":\"{invariant}\",\"count\":{count}}}");
    });
    out.push_str("],\"violations\":[");
    list(&mut out, ",", &report.violations, |out, v| {
        let _ = write!(
            out,
            "\n{{\"invariant\":\"{}\",\"process\":{},\"detail\":",
            v.invariant, v.process
        );
        string(out, &v.detail);
        out.push('}');
    });
    out.push_str("]},\n\"processes\":[");
    list(&mut out, ",", &run.processes, |out, p| {
        let _ = write!(out, "\n{{\"id\":{},\"events\":[", p.id);
        list(out, ",", &p.events, |out, e| {
            out.push('\n');
            event(out, e);
        });
        out.push_str("\n]}");
    });
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, ProcessTrace, TraceMeta};
    use crate::event::{PredTag, Scheme, ViewTag};

    fn sample() -> RunTrace {
        RunTrace {
            meta: TraceMeta {
                seed: 42,
                n: 4,
                t: 0,
                algo: "dex-freq".into(),
                rules: SchemeRules::Frequency,
                faulty: vec![3],
                legend: vec![(5, "5".into())],
                chaos: None,
                pipeline: None,
            },
            processes: vec![ProcessTrace {
                id: 0,
                events: vec![
                    Event {
                        at: 1,
                        depth: 1,
                        kind: EventKind::Deliver { from: 2 },
                    },
                    Event {
                        at: 1,
                        depth: 1,
                        kind: EventKind::ViewSet {
                            view: ViewTag::J1,
                            origin: 2,
                            code: 5,
                        },
                    },
                    Event {
                        at: 1,
                        depth: 1,
                        kind: EventKind::Predicate {
                            pred: PredTag::P1,
                            held: true,
                            len: 4,
                            top_count: 4,
                            second_count: 0,
                            top_code: 5,
                        },
                    },
                    Event {
                        at: 1,
                        depth: 1,
                        kind: EventKind::Decide {
                            scheme: Scheme::OneStep,
                            code: 5,
                        },
                    },
                ],
            }],
        }
    }

    #[test]
    fn render_is_deterministic() {
        let run = sample();
        let report = check(&run);
        assert_eq!(render(&run, &report), render(&run, &report));
    }

    #[test]
    fn render_contains_fixed_keys_and_hex_codes() {
        let run = sample();
        let report = check(&run);
        let s = render(&run, &report);
        assert!(s.starts_with("{\n\"schema\":\"dex-trace/1\""));
        assert!(s.contains("\"rules\":\"frequency\""));
        assert!(s.contains("\"code\":\"0000000000000005\""));
        assert!(s.contains("\"scheme\":\"1-step\""));
        assert!(s.contains("\"faulty\":[3]"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn chaos_meta_and_events_render_only_for_chaos_runs() {
        let clean = {
            let run = sample();
            let report = check(&run);
            render(&run, &report)
        };
        assert!(!clean.contains("\"chaos\""));

        let mut run = sample();
        run.meta.chaos = Some(crate::checker::ChaosMeta {
            last_heal: 80,
            eventually_clean: true,
            crashes: vec![(1, 5, Some(60)), (2, 7, None)],
        });
        run.processes[0].events.push(Event {
            at: 2,
            depth: 1,
            kind: EventKind::LinkDrop { to: 3 },
        });
        run.processes[0].events.push(Event {
            at: 3,
            depth: 0,
            kind: EventKind::PartitionHeal { id: 0 },
        });
        let report = check(&run);
        let s = render(&run, &report);
        assert!(s.contains(
            "\"chaos\":{\"last_heal\":80,\"eventually_clean\":true,\
             \"crashes\":[{\"process\":1,\"from\":5,\"until\":60},\
             {\"process\":2,\"from\":7,\"until\":null}]}"
        ));
        assert!(s.contains("\"kind\":\"link_drop\",\"to\":3"));
        assert!(s.contains("\"kind\":\"partition_heal\",\"id\":0"));
        assert!(s.contains("\"invariant\":\"crash-silence\""));
    }

    #[test]
    fn string_escapes_quotes_backslashes_and_control_characters() {
        let written = |s: &str| {
            let mut out = String::new();
            string(&mut out, s);
            out
        };
        assert_eq!(written("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(written("\r\t"), "\"\\r\\t\"");
        assert_eq!(written("\u{0}\u{1f}\u{7f}"), "\"\\u0000\\u001f\u{7f}\"");
        assert_eq!(written("plain é"), "\"plain é\"");
    }

    #[test]
    fn list_separates_items_and_nothing_else() {
        let written = |items: &[u32]| {
            let mut out = String::from("[");
            list(&mut out, ", ", items, |out, x| {
                let _ = write!(out, "{x}");
            });
            out.push(']');
            out
        };
        assert_eq!(written(&[]), "[]");
        assert_eq!(written(&[7]), "[7]");
        assert_eq!(written(&[1, 2, 3]), "[1, 2, 3]");
    }
}
