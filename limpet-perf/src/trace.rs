//! In-memory spans recorded from the benchmark's side of every layer
//! boundary (the crates under test are not instrumented — that is
//! ROADMAP's tracing item; this file fixes the shape it will emit).
//!
//! A span is `(name, start, end, parent, operation)`. Spans of one
//! operation — one model×config compile, one job — share an operation
//! id. They stay in memory and are written out once, at exit, as Chrome
//! trace-event JSON. A layer's *self time* is its span's duration minus
//! what its direct children cover.

use serve::Json;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.stage`, e.g. `vm.lut_build`.
    pub name: &'static str,
    /// Index into the tracer's operation table.
    pub op: u32,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Recording thread (0 = the benchmark's main thread).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (or to nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<u32>,
    started: Instant,
}

/// Span recorder. When disabled it still times (callers need the
/// durations for end-to-end numbers) but records nothing, so the untraced
/// run pays one `Instant::now()` pair per boundary and no allocation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    ops: Vec<String>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`, stamped as thread `tid`.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            ops: vec!["-".to_owned()],
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stops (or restarts) recording without losing what was recorded:
    /// the traced run measures its untraced reference this way, in the
    /// same process and set-up.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = enabled;
    }

    /// The instant span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Interns an operation label (model×config, job id) and returns its id.
    pub fn op(&mut self, label: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.ops.push(label.to_owned());
        (self.ops.len() - 1) as u32
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, op: u32) -> Open {
        let started = Instant::now();
        if !self.enabled {
            return Open {
                index: None,
                started,
            };
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            end_ns: u64::MAX,
            parent: self.stack.last().copied(),
            tid: self.tid,
        });
        self.stack.push(index);
        Open {
            index: Some(index),
            started,
        }
    }

    /// Closes a span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index as usize].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost-first");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a leaf span; returns its result and duration in
    /// seconds.
    pub fn time<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let r = f();
        (r, self.exit(open))
    }

    /// Records an interval measured by the caller (a job's life as its
    /// events arrived on a connection), under `parent` or else under the
    /// currently open span. Returns a handle to parent further intervals
    /// under it.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent: parent.or(self.stack.last().copied()),
            tid: self.tid,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Moves another thread's spans into this tracer, re-basing their
    /// parent and operation indices.
    pub fn absorb(&mut self, other: Tracer) {
        let (span_base, op_base) = (self.spans.len() as u32, self.ops.len() as u32);
        self.ops.extend(other.ops);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + span_base);
            s.op += op_base;
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds: duration minus the direct
    /// children's durations (children never overlap on one thread).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own.into_iter().map(|ns| ns as f64 * 1e-9).collect()
    }

    /// Total self time in seconds of spans whose name starts with any of
    /// `prefixes`, restricted to `[from_ns, to_ns)` starts.
    pub fn self_time_of_layers(&self, prefixes: &[&str], from_ns: u64, to_ns: u64) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| (from_ns..to_ns).contains(&s.start_ns))
            .filter(|(s, _)| prefixes.iter().any(|p| s.name.starts_with(p)))
            .map(|(_, own)| own)
            .sum()
    }

    /// Nanoseconds since the epoch, for bracketing a phase.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, microsecond timestamps, the layer as
    /// category, and the operation label and parent in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let mut args = vec![
                    ("op", Json::str(&self.ops[s.op as usize])),
                    ("id", i.into()),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", (p as usize).into()));
                }
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(layer)),
                    ("ph", Json::str("X")),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    ("dur", (s.dur_ns() as f64 / 1e3).into()),
                    ("pid", 1usize.into()),
                    ("tid", (s.tid as usize).into()),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            op: 0,
            start_ns: start,
            end_ns: end,
            parent,
            tid: 0,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // compile [0,100) -> passes [10,40) -> cse [20,30); lut [50,90)
        let t = tracer_with(vec![
            span("cache.compile", 0, 100, None),
            span("passes.run", 10, 40, Some(0)),
            span("passes.cse", 20, 30, Some(1)),
            span("vm.lut_build", 50, 90, Some(0)),
        ]);
        let own = t.self_times();
        let ns: Vec<u64> = own.iter().map(|s| (s * 1e9).round() as u64).collect();
        assert_eq!(ns, [30, 20, 10, 40]);
        // Self times partition the root's duration.
        assert_eq!(ns.iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let op = t.op("x");
        let (v, secs) = t.time("vm.step", op, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_enter_exit_links_parents_and_absorb_rebases() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 0);
        let op = a.op("m×c");
        let outer = a.enter("cache.compile", op);
        a.time("vm.lut_build", op, || ());
        a.exit(outer);
        assert_eq!(a.spans()[1].parent, Some(0));
        let mut b = Tracer::new(true, epoch, 1);
        let opb = b.op("job-1");
        let (t0, t1) = (Instant::now(), Instant::now());
        let job = b.record("serve.job", opb, t0, t1, None);
        b.record("serve.streaming", opb, t0, t1, job);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].tid, 1);
        let json = a.chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("job-1"));
        Json::parse(&json).expect("chrome trace is valid JSON");
    }

    #[test]
    fn layer_filter_respects_phase_window() {
        let t = tracer_with(vec![
            span("vm.lut_build", 0, 50, None),
            span("vm.step", 100, 400, None),
            span("sim.update_vm", 400, 420, None),
        ]);
        let compile = t.self_time_of_layers(&["vm.lut_build", "passes."], 100, 1000);
        assert_eq!(compile, 0.0);
        let step = t.self_time_of_layers(&["vm.step", "sim."], 100, 1000);
        assert!((step - 320e-9).abs() < 1e-15);
    }
}
