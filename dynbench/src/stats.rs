//! Order statistics, the output digest and span self time.

use dynnet::obs::TraceEvent;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a (64-bit) as a [`Hasher`], so any `Hash` value can be folded into
/// a digest that is identical across processes and machines of the same
/// endianness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Self time of every recorded span, grouped by span name, in milliseconds:
/// a span's duration minus the part of it covered by its child spans on the
/// same thread. Spans nest properly per thread, so a stack per thread finds
/// each span's parent.
pub fn self_times_ms(events: &[TraceEvent]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns))
    });
    let mut child_ns = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let e = &events[i];
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        while let Some(&top) = stack.last() {
            let t = &events[top];
            if t.start_ns + t.dur_ns <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += e.dur_ns;
        }
        stack.push(i);
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let own = e.dur_ns.saturating_sub(child_ns[i]);
        out.entry(e.name).or_default().push(own as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            label: None,
            start_ns,
            dur_ns,
            tid,
            arg_name: "",
            arg: 0,
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_thread() {
        let events = [
            event("cell", 0, 0, 10_000_000),
            event("send", 0, 1_000_000, 2_000_000),
            event("receive", 0, 4_000_000, 3_000_000),
            // Another thread overlapping in time is not a child.
            event("send", 1, 2_000_000, 5_000_000),
        ];
        let t = self_times_ms(&events);
        assert_eq!(t["cell"], vec![5.0]);
        assert_eq!(t["receive"], vec![3.0]);
        assert_eq!(t["send"], vec![2.0, 5.0]);
    }
}
