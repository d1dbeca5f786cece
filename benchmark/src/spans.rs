//! In-memory span recording for the traced run, and the two wrappers that
//! put spans around the program's layer boundaries from the outside:
//! [`Timed`] around an [`Actor`]'s handlers and [`TimedWal`] around a
//! [`Wal`]'s `append`/`sync`.
//!
//! Each thread records into its own recorder (no locks on the hot path).
//! Every span updates its name's [`Total`] — count, total time and the time
//! its child spans covered — so *self time* (`total − children`) is exact
//! however many spans there are. The first [`KEEP_PER_NAME`] spans of each
//! name are also kept verbatim for the trace file; a sim repetition at
//! n = 31 makes two million handler spans, which nobody can read and no
//! file should hold.

use dex_replication::{Wal, WalRecord};
use dex_simnet::{Actor, Context, MsgClass, Recoverable};
use dex_types::ProcessId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans of one name kept verbatim per thread; totals cover all of them.
pub const KEEP_PER_NAME: u32 = 200;

/// One recorded span. `parent` is the id of the enclosing span on the same
/// thread (ids are per thread; a parent past the keep limit is not listed).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
}

/// Aggregate of every span of one name on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub layer: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` covered by direct child spans.
    pub child_ns: u64,
}

impl Total {
    /// Time spent in these spans themselves, children excluded.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }
}

/// Everything one thread recorded, as [`take_thread`] returns it.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    pub label: String,
    /// The thread's traced wall time as measured *outside* the spans; the
    /// self times must add up to it (see [`ThreadTrace::coverage`]).
    pub wall_ns: u64,
    pub totals: BTreeMap<&'static str, Total>,
    pub spans: Vec<Span>,
}

impl ThreadTrace {
    /// Sum of all self times — equals the time covered by root spans.
    pub fn self_sum_ns(&self) -> u64 {
        self.totals.values().map(Total::self_ns).sum()
    }

    /// Self-time sum as a share of the externally measured wall.
    pub fn coverage(&self) -> f64 {
        self.self_sum_ns() as f64 / self.wall_ns.max(1) as f64
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.total_ns)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.count)
    }
}

struct Frame {
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    next_id: u64,
    rep: u32,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, Total>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; name it when it ends with [`Open::close`], so a span can
/// be named by its outcome (a `pump` that handled nothing is `pump_idle`).
#[must_use = "an open span must be closed"]
pub struct Open(());

/// Opens a span on this thread, child of the innermost open one.
pub fn open() -> Open {
    let start_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        r.stack.push(Frame {
            id,
            start_ns,
            child_ns: 0,
        });
    });
    Open(())
}

impl Open {
    /// Ends the span under `name`, attributed to `layer`.
    pub fn close(self, name: &'static str, layer: &'static str) {
        let end_ns = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let frame = r.stack.pop().expect("close matches an open");
            let duration = end_ns - frame.start_ns;
            let parent = r.stack.last_mut().map(|p| {
                p.child_ns += duration;
                p.id
            });
            let total = r.totals.entry(name).or_default();
            total.layer = layer;
            total.count += 1;
            total.total_ns += duration;
            total.child_ns += frame.child_ns;
            if total.count <= u64::from(KEEP_PER_NAME) {
                let rep = r.rep;
                r.spans.push(Span {
                    id: frame.id,
                    parent,
                    name,
                    layer,
                    start_ns: frame.start_ns,
                    end_ns,
                    rep,
                });
            }
        });
    }
}

/// A span closed when dropped — for scopes with one exit name.
pub struct Scoped {
    open: Option<Open>,
    name: &'static str,
    layer: &'static str,
}

/// Opens a span that ends, under `name`, when the guard drops.
pub fn scoped(name: &'static str, layer: &'static str) -> Scoped {
    Scoped {
        open: Some(open()),
        name,
        layer,
    }
}

impl Drop for Scoped {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.close(self.name, self.layer);
        }
    }
}

/// Sets the repetition stamped on spans this thread records from now on.
pub fn set_rep(rep: u32) {
    RECORDER.with(|r| r.borrow_mut().rep = rep);
}

/// Takes this thread's recording under `label` and resets the recorder.
/// Call with no span open; `wall_ns` is the thread's traced wall time as
/// the caller measured it around its root spans.
pub fn take_thread(label: &str, wall_ns: u64) -> ThreadTrace {
    let recorder = RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()));
    assert!(recorder.stack.is_empty(), "{label}: span left open");
    ThreadTrace {
        label: label.to_string(),
        wall_ns,
        totals: recorder.totals,
        spans: recorder.spans,
    }
}

/// Renders `trace_<workload>.json`: per thread, the totals of every span
/// name (with self time) and the kept spans.
pub fn render_json(workload: &str, seed: u64, traces: &[ThreadTrace]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"keep_per_name\": {KEEP_PER_NAME}, \"threads\": [\n"
    ));
    for (i, t) in traces.iter().enumerate() {
        out.push_str(&format!(
            " {{\"thread\": \"{}\", \"wall_ns\": {}, \"self_sum_ns\": {}, \"totals\": [\n",
            t.label,
            t.wall_ns,
            t.self_sum_ns()
        ));
        let totals: Vec<String> = t
            .totals
            .iter()
            .map(|(name, tot)| {
                format!(
                    "  {{\"name\": \"{name}\", \"layer\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    tot.layer,
                    tot.count,
                    tot.total_ns,
                    tot.self_ns()
                )
            })
            .collect();
        out.push_str(&totals.join(",\n"));
        out.push_str("\n ], \"spans\": [\n");
        let spans: Vec<String> = t
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"workload\": \"{workload}\", \"rep\": {}}}",
                    s.id, s.name, s.layer, s.start_ns, s.end_ns, s.rep
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str(if i + 1 == traces.len() {
            "\n ]}\n"
        } else {
            "\n ]},\n"
        });
    }
    out.push_str("]}\n");
    out
}

/// Layer name the handler spans are attributed to: every actor this
/// benchmark wraps is a `dex-replication` replica (or its Byzantine peer).
const HANDLER_LAYER: &str = "replication";

/// Span names of the handler boundary, for summing handler time.
pub const HANDLER_SPANS: [&str; 3] = ["on_start", "on_message", "restart"];

/// Puts a span around every handler call of the wrapped actor and forwards
/// everything else, so the runtime sees the same messages, sizes and
/// classes as with the bare actor.
pub struct Timed<A>(pub A);

impl<A: Actor> Actor for Timed<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _span = scoped("on_start", HANDLER_LAYER);
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let _span = scoped("on_message", HANDLER_LAYER);
        self.0.on_message(from, msg, ctx);
    }

    fn recorder_mut(&mut self) -> Option<&mut dex_obs::Recorder> {
        self.0.recorder_mut()
    }

    fn msg_bytes(msg: &Self::Msg) -> usize {
        A::msg_bytes(msg)
    }

    fn msg_class(msg: &Self::Msg) -> MsgClass {
        A::msg_class(msg)
    }
}

impl<A: Recoverable> Recoverable for Timed<A> {
    fn restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _span = scoped("restart", HANDLER_LAYER);
        self.0.restart(ctx);
    }
}

/// Puts spans around `append` and `sync` of the wrapped write-ahead log.
pub struct TimedWal<W>(pub W);

impl<C, W: Wal<C>> Wal<C> for TimedWal<W> {
    fn append(&mut self, record: WalRecord<C>) {
        let _span = scoped("wal_append", "replication");
        self.0.append(record);
    }

    fn sync(&mut self) {
        let _span = scoped("wal_sync", "replication");
        self.0.sync();
    }

    fn replay(&self) -> Vec<WalRecord<C>> {
        self.0.replay()
    }

    fn compact(&mut self, retain: Vec<WalRecord<C>>) {
        self.0.compact(retain);
    }

    fn crash(&mut self) {
        self.0.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let until = now_ns() + ns;
        while now_ns() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        // root { a { b } a } on a fresh thread, so no other test's spans mix in.
        let t = std::thread::spawn(|| {
            set_rep(3);
            let started = now_ns();
            let root = open();
            spin(200_000);
            for _ in 0..2 {
                let a = open();
                spin(100_000);
                {
                    let _b = scoped("b", "inner");
                    spin(300_000);
                }
                a.close("a", "mid");
            }
            root.close("root", "outer");
            take_thread("unit", now_ns() - started)
        })
        .join()
        .unwrap();
        let (root, a, b) = (t.totals["root"], t.totals["a"], t.totals["b"]);
        assert_eq!((root.count, a.count, b.count), (1, 2, 2));
        assert_eq!(b.child_ns, 0);
        assert_eq!(a.child_ns, b.total_ns, "b is a's only child");
        assert_eq!(
            root.child_ns, a.total_ns,
            "grandchildren are not double counted"
        );
        assert!(b.self_ns() >= 600_000);
        assert!(a.self_ns() >= 200_000 && a.self_ns() < a.total_ns);
        assert!(root.self_ns() >= 200_000);
        // Self times partition the root span exactly…
        assert_eq!(t.self_sum_ns(), root.total_ns);
        // …and the root span is the thread's wall, within the bookkeeping.
        assert!(
            t.coverage() > 0.95 && t.coverage() <= 1.0,
            "{}",
            t.coverage()
        );
        // Kept spans carry ids, parents and the repetition.
        let root_span = t.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root_span.parent, None);
        let a_span = t.spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(a_span.parent, Some(root_span.id));
        assert!(t.spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let doc = crate::json::parse(&render_json("w", 1, std::slice::from_ref(&t))).unwrap();
        let threads = doc
            .get("threads")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        assert_eq!(threads.len(), 1);
    }

    #[test]
    fn only_the_first_spans_of_a_name_are_kept_but_all_are_counted() {
        let t = std::thread::spawn(|| {
            for _ in 0..(KEEP_PER_NAME + 50) {
                let _s = scoped("many", "x");
            }
            take_thread("cap", 1)
        })
        .join()
        .unwrap();
        assert_eq!(t.count("many"), u64::from(KEEP_PER_NAME) + 50);
        assert_eq!(t.spans.len(), KEEP_PER_NAME as usize);
    }
}
