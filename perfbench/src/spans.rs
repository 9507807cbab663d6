//! The benchmark's own spans: recorded in memory around the calls into
//! each layer, folded into self times, written once at exit as a
//! chrome://tracing document.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reconciliation tolerance: the largest share of the traced end-to-end
/// time that the layer spans may leave unattributed.
pub const UNATTRIBUTED_TOL: f64 = 0.05;

/// One completed span. `parent` is the span that caused it (0 = none);
/// spans of one request or round share `req`.
#[derive(Clone, Debug)]
pub struct Rec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub tid: u32,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Span sink. A disabled sink records nothing and hands out id 0.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    events: Mutex<Vec<Rec>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A fresh span id, so children can name a parent that is recorded
    /// after them.
    pub fn reserve(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record the interval `[start, start + dur)` under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        dur: Duration,
    ) {
        if !self.on {
            return;
        }
        let rec = Rec {
            id,
            parent,
            req,
            name,
            tid: mspgemm_obs::thread_index(),
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        };
        self.events.lock().unwrap().push(rec);
    }

    /// Record a span and return its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, dur);
        id
    }

    pub fn events(&self) -> Vec<Rec> {
        self.events.lock().unwrap().clone()
    }

    /// Summed duration of all spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_us as f64 * 1e-6)
            .sum()
    }

    /// Summed self time of all spans named `name`: each span's duration
    /// minus the part its child spans cover (children never overlap each
    /// other here: every layer call is synchronous), seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let events = self.events();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for e in &events {
            *child_us.entry(e.parent).or_default() += e.dur_us;
        }
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| {
                e.dur_us
                    .saturating_sub(child_us.get(&e.id).copied().unwrap_or(0))
                    as f64
                    * 1e-6
            })
            .sum()
    }

    /// The chrome://tracing document (complete `"ph":"X"` events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                e.name, e.tid, e.start_us, e.dur_us, e.id, e.parent, e.req
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}
