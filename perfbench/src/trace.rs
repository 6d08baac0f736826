//! The benchmark's own span recorder and the per-layer self-time table.
//!
//! Spans wrap the benchmark's calls into each layer's public functions;
//! nothing inside the program is instrumented. A span is named
//! `<layer>.<call>`, so its layer is the name up to the first dot. Spans
//! stay in memory until the run ends.
//!
//! Self time is a share of the traced wall-clock, so that the rows of the
//! table sum to it even when spans overlap on several threads: the traced
//! interval is cut at every span boundary, and each slice goes to the
//! spans open in it that have no open child. When several such spans are
//! open on different threads, they split the slice equally. A slice with
//! no span open, and the self time of the benchmark's own `bench.` spans,
//! is the unattributed remainder.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Index of a span; `NO_PARENT` marks a root.
pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Its id.
    pub id: SpanId,
    /// The span that caused it, or [`NO_PARENT`].
    pub parent: SpanId,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch.
    pub end: f64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU32::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Start recording spans.
pub fn enable() {
    recorder();
    ON.store(true, Ordering::SeqCst);
}

/// Stop recording; spans recorded so far stay readable.
pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

/// Every span closed so far, in closing order, and clear the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span store poisoned"))
}

/// The innermost span open on this thread, or [`NO_PARENT`].
pub fn current() -> SpanId {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT))
}

/// An open span; closes when dropped. Inert while the recorder is off.
pub struct Guard {
    live: Option<(SpanId, SpanId, &'static str, Instant)>,
}

/// Open a span whose parent is the innermost span open on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Open a span under an explicit parent: a task running on a pool worker
/// names the span that fanned it out.
pub fn span_under(name: &'static str, parent: SpanId) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { live: None };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        live: Some((id, parent, name, Instant::now())),
    }
}

impl Guard {
    /// The span's id ([`NO_PARENT`] while the recorder is off).
    pub fn id(&self) -> SpanId {
        self.live.as_ref().map_or(NO_PARENT, |l| l.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let rec = recorder();
        let span = Span {
            id,
            parent,
            name,
            start: start.duration_since(rec.epoch).as_secs_f64(),
            end: end.duration_since(rec.epoch).as_secs_f64(),
        };
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// The per-layer self-time table of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimes {
    /// `(layer, seconds)`, sorted by layer name; `bench` is excluded.
    pub layers: Vec<(String, f64)>,
    /// Wall-clock covered by no layer span, plus the self time of the
    /// benchmark's own `bench.` spans.
    pub remainder: f64,
    /// From the first span start to the last span end.
    pub wall: f64,
}

impl SelfTimes {
    /// Self time of `layer` (zero when it recorded no span).
    pub fn of(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, s)| *s)
    }
}

/// Seconds the program's own span histograms recorded inside benchmark
/// spans: `seconds` of the spans whose name starts with `within` belong to
/// `layer`. The seconds must exclude any nested entry listed beside them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nested<'a> {
    /// Name prefix of the enclosing benchmark spans.
    pub within: &'a str,
    /// The layer the program histogram belongs to.
    pub layer: &'a str,
    /// Seconds it recorded (summed over calls on the enclosing spans'
    /// threads).
    pub seconds: f64,
}

/// Attribute the wall-clock spanned by `spans` to layers by the rule in the
/// module documentation, then hand each [`Nested`] entry its share of the
/// enclosing spans' self time: the fraction `seconds / duration of the
/// enclosing spans`, so the rows still sum to the wall.
pub fn self_times_nested(spans: &[Span], nested: &[Nested<'_>]) -> SelfTimes {
    let (mut t, per_span) = attribute(spans);
    for group in nested
        .iter()
        .map(|n| n.within)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let members: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name.starts_with(group))
            .collect();
        let dur: f64 = members.iter().map(|&i| spans[i].end - spans[i].start).sum();
        if dur <= 0.0 {
            continue;
        }
        let mut left = 1.0f64;
        for n in nested.iter().filter(|n| n.within == group) {
            let frac = (n.seconds / dur).clamp(0.0, left);
            left -= frac;
            for &i in &members {
                let moved = per_span[i] * frac;
                add(&mut t.layers, spans[i].layer(), -moved);
                add(&mut t.layers, n.layer, moved);
            }
        }
    }
    t
}

fn add(layers: &mut Vec<(String, f64)>, layer: &str, secs: f64) {
    match layers.iter_mut().find(|(l, _)| l == layer) {
        Some((_, total)) => *total += secs,
        None => {
            layers.push((layer.to_string(), secs));
            layers.sort_by(|a, b| a.0.cmp(&b.0));
        }
    }
}

/// The self-time table without nested entries, and each span's own share
/// of the wall.
fn attribute(spans: &[Span]) -> (SelfTimes, Vec<f64>) {
    let mut layers: Vec<(String, f64)> = Vec::new();
    if spans.is_empty() {
        let empty = SelfTimes {
            layers,
            remainder: 0.0,
            wall: 0.0,
        };
        return (empty, Vec::new());
    }
    let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let t1 = spans
        .iter()
        .map(|s| s.end)
        .fold(f64::NEG_INFINITY, f64::max);
    let index_of: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_idx: Vec<Option<usize>> = spans
        .iter()
        .map(|s| index_of.get(&s.parent).copied())
        .collect();

    // Boundaries, starts before ends at equal times.
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, true, i));
        events.push((s.end, false, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));

    let mut self_s = vec![0.0f64; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut remainder = 0.0;
    let mut prev = t0;
    for &(t, is_start, i) in &events {
        let slice = t - prev;
        if slice > 0.0 {
            let leaves: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&j| open_children[j] == 0)
                .collect();
            if leaves.is_empty() {
                remainder += slice;
            } else {
                let share = slice / leaves.len() as f64;
                for j in leaves {
                    self_s[j] += share;
                }
            }
        }
        prev = t;
        if is_start {
            open.push(i);
            if let Some(p) = parent_idx[i] {
                open_children[p] += 1;
            }
        } else {
            if let Some(pos) = open.iter().position(|&j| j == i) {
                open.swap_remove(pos);
            }
            if let Some(p) = parent_idx[i] {
                open_children[p] -= 1;
            }
        }
    }

    for (s, secs) in spans.iter().zip(&self_s) {
        if s.layer() == "bench" {
            remainder += secs;
        } else {
            add(&mut layers, s.layer(), *secs);
        }
    }
    let t = SelfTimes {
        layers,
        remainder,
        wall: t1 - t0,
    };
    (t, self_s)
}

/// Total duration and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + (s.end - s.start), n + 1))
}

/// The spans as a JSON array: id, parent, name, start, end.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                s.id, parent, s.name, s.start, s.end
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: SpanId, parent: SpanId, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    fn assert_sums_to_wall(t: &SelfTimes) {
        let sum: f64 = t.layers.iter().map(|(_, x)| x).sum::<f64>() + t.remainder;
        assert!((sum - t.wall).abs() < 1e-12, "{sum} != {}", t.wall);
    }

    #[test]
    fn nested_spans_on_one_thread() {
        // bench [0, 10] > core [1, 9] > simhw [2, 5]
        let spans = vec![
            s(2, 1, "simhw.write", 2.0, 5.0),
            s(1, 0, "core.run", 1.0, 9.0),
            s(0, NO_PARENT, "bench.root", 0.0, 10.0),
        ];
        let t = self_times_nested(&spans, &[]);
        assert_eq!(t.wall, 10.0);
        assert_eq!(t.of("simhw"), 3.0);
        assert_eq!(t.of("core"), 5.0);
        assert_eq!(t.remainder, 2.0);
        assert_sums_to_wall(&t);
    }

    #[test]
    fn program_histograms_take_their_share_of_the_enclosing_spans() {
        // Two overlapping core runs on two threads: each gets half of the
        // overlap. Inside them the program recorded 6 s of runtime work and
        // 3 s of simhw stepping out of 12 s of core span duration.
        let spans = vec![
            s(0, NO_PARENT, "core.run.a", 0.0, 6.0),
            s(1, NO_PARENT, "core.run.b", 0.0, 6.0),
        ];
        let nested = [
            Nested {
                within: "core.run",
                layer: "runtime",
                seconds: 6.0,
            },
            Nested {
                within: "core.run",
                layer: "simhw",
                seconds: 3.0,
            },
        ];
        let t = self_times_nested(&spans, &nested);
        assert_eq!(t.of("runtime"), 3.0);
        assert_eq!(t.of("simhw"), 1.5);
        assert_eq!(t.of("core"), 1.5);
        assert_sums_to_wall(&t);
    }

    #[test]
    fn gaps_between_roots_are_remainder() {
        let spans = vec![
            s(0, NO_PARENT, "rm.a", 0.0, 1.0),
            s(1, NO_PARENT, "rm.b", 3.0, 4.0),
        ];
        let t = self_times_nested(&spans, &[]);
        assert_eq!(t.of("rm"), 2.0);
        assert_eq!(t.remainder, 2.0);
        assert_sums_to_wall(&t);
    }

    #[test]
    fn concurrent_children_split_the_wall() {
        // exec fans out two core tasks on two workers, overlapping on
        // [2, 6]; the pool's own time is what no task covers.
        let spans = vec![
            s(0, NO_PARENT, "exec.par_map", 0.0, 10.0),
            s(1, 0, "core.a", 1.0, 6.0),
            s(2, 0, "core.b", 2.0, 9.0),
        ];
        let t = self_times_nested(&spans, &[]);
        assert_eq!(t.of("exec"), 2.0);
        assert_eq!(t.of("core"), 8.0);
        assert_eq!(t.remainder, 0.0);
        assert_sums_to_wall(&t);
    }

    #[test]
    fn self_time_plus_remainder_is_the_wall_for_random_trees() {
        // A deterministic pseudo-random forest over two threads.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 100.0
        };
        for _ in 0..50 {
            let mut spans = Vec::new();
            for id in 0..20u32 {
                let (a, b) = (next(), next());
                let parent = if id > 0 && next() > 3.0 {
                    (next() as u32) % id
                } else {
                    NO_PARENT
                };
                let name = ["exec.x", "core.x", "simhw.x", "bench.x"][id as usize % 4];
                spans.push(s(id, parent, name, a.min(b), a.max(b)));
            }
            let t = self_times_nested(&spans, &[]);
            let sum: f64 = t.layers.iter().map(|(_, x)| x).sum::<f64>() + t.remainder;
            assert!((sum - t.wall).abs() < 1e-9, "{sum} != {}", t.wall);
            assert!(t.layers.iter().all(|(_, x)| *x >= 0.0));
        }
    }

    #[test]
    fn recorder_tracks_parents_per_thread() {
        enable();
        let _ = take();
        let outer = span("bench.outer");
        let outer_id = outer.id();
        {
            let _inner = span("core.inner");
        }
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let _task = span_under("core.task", outer_id);
            });
        });
        drop(outer);
        disable();
        let spans = take();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span").clone();
        assert_eq!(by_name("core.inner").parent, outer_id);
        assert_eq!(by_name("core.task").parent, outer_id);
        assert_eq!(by_name("bench.outer").parent, NO_PARENT);
        assert!(by_name("core.inner").end <= by_name("bench.outer").end);
    }
}
