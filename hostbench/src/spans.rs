//! Host-time spans and counts recorded around calls into the
//! simulator's layers, in traced runs only.

use std::collections::BTreeMap;
use std::time::Instant;

/// Total host ns and total counts per span name.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Runs `f`, adding its host time to span `name` when tracing.
    /// Untraced, this is a plain call.
    pub fn time<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
        match spans.as_deref_mut() {
            None => f(),
            Some(s) => {
                let t = Instant::now();
                let r = f();
                *s.ns.entry(name).or_default() += t.elapsed().as_nanos() as u64;
                r
            }
        }
    }

    /// Adds `n` to count `name` when tracing.
    pub fn count(spans: &mut Option<&mut Spans>, name: &'static str, n: u64) {
        if let Some(s) = spans.as_deref_mut() {
            *s.counts.entry(name).or_default() += n;
        }
    }

    /// Total host ns recorded under `name`.
    pub fn ns(&self, name: &str) -> u64 {
        self.ns.get(name).copied().unwrap_or(0)
    }

    /// Total count recorded under `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
