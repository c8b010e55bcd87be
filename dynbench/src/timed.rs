//! Timing wrapper around [`Concat`] for the traced run.
//!
//! [`TimedConcat`] is a [`NodeAlgorithm`] that forwards every call to the
//! wrapped `Concat` node and adds the time spent in its `send` and `receive`
//! to process-wide counters, together with the number of live `DAlg`
//! instances and the payload of every delivered message. The simulator's
//! own `receive` span minus `concat.receive` is inbox delivery.

use dynnet::core::concat::{Concat, ConcatMsg, DynamicAlgorithmFactory};
use dynnet::core::HasBottom;
use dynnet::runtime::{AlgorithmFactory, Incoming, NodeAlgorithm, NodeContext};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static SEND_NS: AtomicU64 = AtomicU64::new(0);
static RECEIVE_NS: AtomicU64 = AtomicU64::new(0);
static LIVE_INSTANCES: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_ELEMS: AtomicU64 = AtomicU64::new(0);

/// Running totals of every [`TimedConcat`] node in the process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConcatCounters {
    /// Nanoseconds inside `Concat::send`.
    pub send_ns: u64,
    /// Nanoseconds inside `Concat::receive`.
    pub receive_ns: u64,
    /// Live `DAlg` instances, summed over the nodes each round.
    pub live_instances: u64,
    /// Σ over delivered messages of `1 + d.len()` (the `SAlg` part plus one
    /// element per `DAlg` instance).
    pub payload_elems: u64,
}

impl ConcatCounters {
    /// The totals so far.
    pub fn now() -> ConcatCounters {
        // ORDERING: statistics read after the round that produced them
        // returned; they publish no other data.
        ConcatCounters {
            send_ns: SEND_NS.load(Ordering::Relaxed),
            receive_ns: RECEIVE_NS.load(Ordering::Relaxed),
            live_instances: LIVE_INSTANCES.load(Ordering::Relaxed),
            payload_elems: PAYLOAD_ELEMS.load(Ordering::Relaxed),
        }
    }

    /// The totals accumulated since `earlier`.
    pub fn since(self, earlier: ConcatCounters) -> ConcatCounters {
        ConcatCounters {
            send_ns: self.send_ns - earlier.send_ns,
            receive_ns: self.receive_ns - earlier.receive_ns,
            live_instances: self.live_instances - earlier.live_instances,
            payload_elems: self.payload_elems - earlier.payload_elems,
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A `Concat` node whose `send`/`receive` are timed.
pub struct TimedConcat<S, D, DF>(pub Concat<S, D, DF>)
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>;

impl<S, D, DF> NodeAlgorithm for TimedConcat<S, D, DF>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>,
{
    type Msg = ConcatMsg<S::Msg, D::Msg>;
    type Output = S::Output;

    fn on_wake(&mut self, ctx: &mut NodeContext<'_>) {
        self.0.on_wake(ctx);
    }

    fn send(&mut self, ctx: &mut NodeContext<'_>) -> Self::Msg {
        let start = Instant::now();
        let msg = self.0.send(ctx);
        let ns = elapsed_ns(start);
        // ORDERING: independent statistics counters.
        SEND_NS.fetch_add(ns, Ordering::Relaxed);
        LIVE_INSTANCES.fetch_add(self.0.num_instances() as u64, Ordering::Relaxed);
        msg
    }

    fn receive(&mut self, ctx: &mut NodeContext<'_>, inbox: &[Incoming<Self::Msg>]) {
        let payload: usize = inbox.iter().map(|(_, m)| 1 + m.d.len()).sum();
        let start = Instant::now();
        self.0.receive(ctx, inbox);
        let ns = elapsed_ns(start);
        // ORDERING: independent statistics counters.
        RECEIVE_NS.fetch_add(ns, Ordering::Relaxed);
        PAYLOAD_ELEMS.fetch_add(payload as u64, Ordering::Relaxed);
    }

    fn output(&self) -> Self::Output {
        self.0.output()
    }
}

/// Wraps an [`AlgorithmFactory`] of `Concat` nodes so that it builds
/// [`TimedConcat`] nodes.
pub struct TimedFactory<F>(pub F);

impl<S, D, DF, F> AlgorithmFactory<TimedConcat<S, D, DF>> for TimedFactory<F>
where
    S: NodeAlgorithm,
    D: NodeAlgorithm<Output = S::Output>,
    S::Output: HasBottom,
    DF: DynamicAlgorithmFactory<D>,
    F: AlgorithmFactory<Concat<S, D, DF>>,
{
    fn create(&self, v: dynnet::graph::NodeId) -> TimedConcat<S, D, DF> {
        TimedConcat(self.0.create(v))
    }
}
