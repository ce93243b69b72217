//! Experiment scale and options: the knobs shared by all experiments.

use pss_core::{PolicyTriple, ProtocolConfig};

use crate::workload::FreshnessChoice;

/// The options every experiment runs from: the `experiments` CLI's parsed
/// flags. A command reads the fields its row lists, and an unset field
/// falls back to the experiment's own default.
#[derive(Debug, Clone)]
pub struct Options {
    /// Population, cycle budget, view size and seed.
    pub scale: Scale,
    /// Runs or repetitions per protocol (`--runs`).
    pub runs: Option<usize>,
    /// Shard counts (`--shards`); a command that runs one count takes the
    /// first.
    pub shards: Option<Vec<usize>>,
    /// Worker threads (`--workers`; results are worker-invariant), or the
    /// runtime count for `net`.
    pub workers: Option<usize>,
    /// A membership schedule in the [`pss_sim::workload`] grammar
    /// (`--schedule`).
    pub schedule: Option<String>,
    /// Freshness mode(s) of a `matrix --schedule` run (`--freshness`).
    pub freshness: FreshnessChoice,
}

impl Options {
    /// The options at `scale` with every other field unset.
    pub fn at(scale: Scale) -> Self {
        Options {
            scale,
            runs: None,
            shards: None,
            workers: None,
            schedule: None,
            freshness: FreshnessChoice::default(),
        }
    }

    /// The first `--shards` entry, or `default`.
    pub fn shards_or(&self, default: usize) -> usize {
        self.shards
            .as_ref()
            .and_then(|s| s.first().copied())
            .unwrap_or(default)
    }
}

/// The shared experiment scale: population, cycle budget, view size, seed.
///
/// [`Scale::paper`] reproduces the published setup (N = 10⁴, c = 30,
/// 300 cycles). Smaller presets keep the same shape at lower cost for
/// tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of nodes N.
    pub nodes: usize,
    /// Cycles to run before measuring (the paper's 300).
    pub cycles: u64,
    /// View size c.
    pub view_size: usize,
    /// Master seed; every derived run seed is a deterministic function of
    /// this and the run index.
    pub seed: u64,
}

impl Scale {
    /// The paper's setup: N = 10⁴, 300 cycles, c = 30.
    pub fn paper() -> Self {
        Scale {
            nodes: 10_000,
            cycles: 300,
            view_size: 30,
            seed: 20040601,
        }
    }

    /// A laptop-friendly scale preserving the qualitative shape:
    /// N = 2000, 150 cycles, c = 30.
    pub fn small() -> Self {
        Scale {
            nodes: 2000,
            cycles: 150,
            view_size: 30,
            seed: 20040601,
        }
    }

    /// A smoke-test scale for tests and CI: N = 300, 60 cycles, c = 15.
    pub fn tiny() -> Self {
        Scale {
            nodes: 300,
            cycles: 60,
            view_size: 15,
            seed: 20040601,
        }
    }

    /// The million-node scale for the sharded engine: N = 10⁶, c = 30,
    /// 20 cycles — two orders of magnitude beyond the paper's populations,
    /// enough cycles for the in-degree distribution to converge from the
    /// random start (the paper's random-start runs converge within ~20
    /// cycles at every N it studied). Used by the `async` experiment, which
    /// runs both engines at every `--shards` entry.
    pub fn million() -> Self {
        Scale {
            nodes: 1_000_000,
            cycles: 20,
            view_size: 30,
            seed: 20040601,
        }
    }

    /// Protocol configuration for `policy` at this scale's view size.
    ///
    /// # Panics
    ///
    /// Panics if the view size is 0 (scales are assumed validated).
    pub fn protocol(&self, policy: PolicyTriple) -> ProtocolConfig {
        ProtocolConfig::new(policy, self.view_size).expect("non-zero view size")
    }

    /// Deterministically derives an independent seed for run `index`
    /// (SplitMix64 of `seed ⊕ index`).
    pub fn run_seed(&self, index: u64) -> u64 {
        pss_sim::mix(self.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Scale::paper().nodes, 10_000);
        assert_eq!(Scale::paper().view_size, 30);
        assert_eq!(Scale::paper().cycles, 300);
        assert!(Scale::small().nodes < Scale::paper().nodes);
        assert!(Scale::tiny().nodes < Scale::small().nodes);
        assert_eq!(Scale::default(), Scale::paper());
    }

    #[test]
    fn run_seeds_are_distinct_and_deterministic() {
        let s = Scale::tiny();
        assert_eq!(s.run_seed(3), s.run_seed(3));
        let mut seeds: Vec<u64> = (0..100).map(|i| s.run_seed(i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn protocol_uses_scale_view_size() {
        let s = Scale::tiny();
        let c = s.protocol(PolicyTriple::newscast());
        assert_eq!(c.view_size(), 15);
    }
}
