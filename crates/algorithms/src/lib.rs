//! # dynnet-algorithms
//!
//! The concrete algorithms of *"Local Distributed Algorithms in Highly
//! Dynamic Networks"* plus static baselines and an application layer:
//!
//! **Coloring** (Section 4):
//! * [`coloring::BasicColoring`] — Algorithm 6, the pipelined basic
//!   randomized (degree+1)-coloring for static graphs.
//! * [`coloring::DColor`] — Algorithm 2, the `O(log n)`-dynamic coloring
//!   algorithm (communication restricted to the intersection graph).
//! * [`coloring::SColor`] — Algorithm 3, the `(O(log n), 2)`-network-static
//!   coloring algorithm (nodes uncolor themselves when invalidated).
//! * [`coloring::dynamic_coloring`] — Corollary 1.2: `Concat(SColor, DColor)`.
//! * [`coloring::RestartColoring`], [`coloring::oracle_coloring`] — baselines.
//!
//! **MIS** (Section 5):
//! * [`mis::LubyMis`] — pipelined Luby for static graphs.
//! * [`mis::DMis`] — Algorithm 4, the `O(log n)`-dynamic MIS algorithm.
//! * [`mis::GhaffariMis`] — classic pipelined Ghaffari for static graphs.
//! * [`mis::SMis`] — Algorithm 5, the `(O(log n), 2)`-network-static MIS
//!   algorithm (nodes may leave `M`/`D` again).
//! * [`mis::dynamic_mis`] — Corollary 1.3: `Concat(SMis, DMis)`.
//! * [`mis::RestartMis`], [`mis::oracle_mis`] — baselines.
//!
//! **Applications**:
//! * [`apps::tdma`] — TDMA slot assignment and contention resolution built on
//!   the coloring output (the paper's motivating application).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Application layer built on the algorithms (TDMA slot assignment).
pub mod apps {
    pub mod tdma;
}

/// Vertex-coloring algorithms (Section 4 of the paper).
pub mod coloring {
    pub mod baselines;
    pub mod basic;
    pub mod combined;
    pub mod dcolor;
    pub mod scolor;

    pub use baselines::{oracle_coloring, RestartColoring};
    pub use basic::{BasicColoring, ColorMsg};
    pub use combined::{dynamic_coloring, DynamicColoring, DynamicColoringFactory};
    pub use dcolor::DColor;
    pub use scolor::SColor;
}

/// MIS algorithms (Section 5 of the paper).
pub mod mis {
    pub mod baselines;
    pub mod combined;
    pub mod dmis;
    pub mod ghaffari;
    pub mod luby;
    pub mod smis;

    pub use baselines::{oracle_mis, RestartMis};
    pub use combined::{dynamic_mis, DynamicMis, DynamicMisFactory};
    pub use dmis::DMis;
    pub use ghaffari::GhaffariMis;
    pub use luby::{LubyMis, LubyMsg};
    pub use smis::{GhaffariMsg, SMis};
}

pub use coloring::{BasicColoring, DColor, SColor};
pub use mis::{DMis, GhaffariMis, LubyMis, SMis};

/// Test support: one recorded `Scenario` run.
#[cfg(test)]
pub(crate) mod testing {
    use dynnet_adversary::{OutputAdversary, Runner, Scenario};
    use dynnet_runtime::{AlgorithmFactory, AllAtStart, NodeAlgorithm, TraceRecorder};

    /// Runs `factory` against `adversary` for `rounds` rounds (synchronous
    /// start, sequential, seed `seed`), recording every round's graph and
    /// outputs.
    pub(crate) fn record_run<A, F, Adv>(
        n: usize,
        factory: F,
        adversary: Adv,
        seed: u64,
        rounds: usize,
    ) -> (Runner<A, F, AllAtStart, Adv>, TraceRecorder<A::Output>)
    where
        A: NodeAlgorithm,
        F: AlgorithmFactory<A>,
        Adv: OutputAdversary<A::Output>,
    {
        let mut recorder = TraceRecorder::new();
        let runner = Scenario::new(n)
            .algorithm(factory)
            .adversary(adversary)
            .seed(seed)
            .rounds(rounds)
            .run(&mut [&mut recorder]);
        (runner, recorder)
    }
}
