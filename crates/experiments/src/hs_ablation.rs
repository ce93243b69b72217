//! **Extension X4** — ablation of the healer/swapper design space.
//!
//! The paper's conclusion calls for "combining different settings"; the
//! authors' follow-up work parameterizes view selection with H (healer) and
//! S (swapper). This ablation sweeps (H, S) corners and measures the two
//! properties the 2004 paper showed to be in tension:
//!
//! * healing speed after a 50 % failure (head-like behavior, large H),
//! * degree balance of the converged overlay (shuffle-like behavior,
//!   large S).

use pss_core::hs::{HsConfig, HsNode, HsPeerSelection};
use pss_core::NodeDescriptor;
use pss_sim::{BoxedNode, ShardedSimulation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Fraction killed for the healing measurement.
const KILL_FRACTION: f64 = 0.5;

/// The `(H, S)` pairs tested: the corners and midpoint of the valid
/// triangle `H + S <= c/2`.
fn corners(scale: Scale) -> [(usize, usize); 4] {
    let half = scale.view_size / 2;
    [
        (0, 0),               // blind: random removals only
        (half, 0),            // healer corner
        (0, half),            // swapper (shuffler) corner
        (half / 2, half / 2), // balanced midpoint
    ]
}

/// Measured qualities of one (H, S) point.
#[derive(Debug, Clone, PartialEq)]
pub struct HsPoint {
    /// Healer parameter.
    pub healer: usize,
    /// Swapper parameter.
    pub swapper: usize,
    /// Degree variance of the converged overlay (lower = more balanced).
    pub degree_variance: f64,
    /// Dead links remaining after the recovery window (0 = fully healed).
    pub dead_links_remaining: f64,
    /// First post-failure cycle with zero dead links, if reached.
    pub healed_at: Option<u64>,
    /// Whether the converged overlay was connected.
    pub connected: bool,
}

/// Result of the H&S ablation.
#[derive(Debug, Clone)]
pub struct HsAblationResult {
    /// One row per (H, S) corner.
    pub points: Vec<HsPoint>,
}

impl Report for HsAblationResult {
    /// The ablation table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "H",
            "S",
            "degree variance",
            "healed at cycle",
            "dead links left",
            "connected",
        ]);
        for p in &self.points {
            t.row(vec![
                p.healer.to_string(),
                p.swapper.to_string(),
                fmt_f64(p.degree_variance, 1),
                p.healed_at.map_or("never".into(), |c| c.to_string()),
                fmt_f64(p.dead_links_remaining, 0),
                if p.connected { "yes" } else { "NO" }.into(),
            ]);
        }
        vec![Section::new("hs", t, None)]
    }
}

/// Runs the ablation (corners in parallel).
pub fn run(o: &Options) -> HsAblationResult {
    let scale = o.scale;
    let points = parallel_map(corners(scale).to_vec(), move |corner| point(scale, corner));
    HsAblationResult { points }
}

/// Measures one `(H, S)` corner: degree balance of the converged overlay,
/// then healing after [`KILL_FRACTION`] of the nodes crash.
fn point(scale: Scale, (healer, swapper): (usize, usize)) -> HsPoint {
    // Cycles allowed for healing.
    let recovery = (scale.cycles / 3).max(30);
    let hs = HsConfig::new(scale.view_size, healer, swapper, HsPeerSelection::Rand)
        .expect("corner within the valid triangle");
    let mut sim = ShardedSimulation::with_factory(scale.seed ^ 0x45a, 1, move |id, seed| {
        Box::new(HsNode::with_seed(id, hs, seed)) as BoxedNode
    });
    // Random bootstrap: every node knows `c` uniform-random others.
    let mut topo = SmallRng::seed_from_u64(scale.seed ^ 0x45b);
    for _ in 0..scale.nodes {
        sim.add_node([]);
    }
    let node_ids = sim.alive_ids();
    for &id in &node_ids {
        let seeds: Vec<NodeDescriptor> = (0..scale.view_size)
            .map(|_| loop {
                let pick = node_ids[topo.random_range(0..node_ids.len())];
                if pick != id {
                    break NodeDescriptor::fresh(pick);
                }
            })
            .collect();
        // Re-initialize the node's view in place via the factory-made
        // node: `add_node` already initialized empty views,
        // so feed seeds through a one-off init.
        sim.reinit_node(id, seeds);
    }
    sim.run_cycles(scale.cycles);

    let graph = sim.csr_snapshot().graph().undirected();
    let degree_variance = graph.degree_distribution().variance();
    let connected = pss_graph::components::connected_components(&graph).is_connected();

    sim.kill_random_fraction(KILL_FRACTION);
    let mut healed_at = None;
    for cycle in 1..=recovery {
        sim.run_cycle();
        if sim.dead_link_count() == 0 {
            healed_at = Some(cycle);
            break;
        }
    }
    HsPoint {
        healer,
        swapper,
        degree_variance,
        dead_links_remaining: sim.dead_link_count() as f64,
        healed_at,
        connected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healer_corner_heals_blind_corner_does_not() {
        let scale = Scale {
            nodes: 300,
            cycles: 40,
            view_size: 16,
            seed: 91,
        };
        let result = HsAblationResult {
            points: vec![point(scale, (0, 0)), point(scale, (8, 0))],
        };
        let blind = &result.points[0];
        let healer = &result.points[1];
        assert!(blind.connected && healer.connected);
        assert!(
            healer.healed_at.is_some(),
            "healer corner should fully heal, left {}",
            healer.dead_links_remaining
        );
        assert!(
            healer.dead_links_remaining < blind.dead_links_remaining,
            "healer {} should beat blind {}",
            healer.dead_links_remaining,
            blind.dead_links_remaining
        );
        assert_eq!(result.sections()[0].summary.len(), 2);
    }

    #[test]
    fn swapper_corner_balances_degrees() {
        let scale = Scale {
            nodes: 300,
            cycles: 40,
            view_size: 16,
            seed: 92,
        };
        let blind = point(scale, (0, 0));
        let swapper = point(scale, (0, 8));
        assert!(
            swapper.degree_variance <= blind.degree_variance * 1.2,
            "swapper variance {} should not exceed blind {}",
            swapper.degree_variance,
            blind.degree_variance
        );
    }
}
