//! The ordered stack list that the cross-stack commands (`workload`,
//! `matrix`, `protocols`, `adversary`) run each compiled schedule on, and
//! the end-of-run health cells their gates share.

use pss_core::adversary::AdversaryRoles;
use pss_sim::audit::{role_factory, HonestPolicy};
use pss_sim::workload::PeriodRecord;
use pss_sim::{
    scenario, BoxedNode, EventConfig, LatencyModel, Mode, Sharded, ShardedEventSimulation,
    ShardedSimulation, WorkloadTarget,
};

use crate::report::{Cell, Cmp, Table};
use crate::Scale;

/// A simulation stack of the cross-stack commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The sharded cycle engine: the paper's model.
    Cycle,
    /// The sharded event engine: per period, 20 % timer jitter, 1–20 %
    /// latency and 1 % loss.
    Event,
}

impl Stack {
    /// Every stack, in the order of every per-stack result, column and row.
    pub const ALL: [Stack; 2] = [Stack::Cycle, Stack::Event];

    /// The row label (`cycle`, `event`).
    pub fn label(self) -> &'static str {
        match self {
            Stack::Cycle => "cycle",
            Stack::Event => "event",
        }
    }

    /// The column prefix (`cyc`, `evt`).
    pub fn short(self) -> &'static str {
        match self {
            Stack::Cycle => "cyc",
            Stack::Event => "evt",
        }
    }
}

/// A table of the `shared` columns, then the `per_stack` columns under
/// each stack's [`Stack::short`] prefix, stack by stack.
pub(crate) fn stack_table(shared: &[&str], per_stack: &[&str]) -> Table {
    let mut headers: Vec<String> = shared.iter().map(|c| c.to_string()).collect();
    for s in Stack::ALL {
        headers.extend(per_stack.iter().map(|c| format!("{} {c}", s.short())));
    }
    Table::new(headers)
}

/// Runs `drive` on every stack, each built from [`role_factory`] at
/// `(scale.seed, shards)` and grown to `scale.nodes` nodes by
/// [`scenario::seed_tree`]; the results come back in [`Stack::ALL`] order.
/// Fails with the event engine's configuration error text (a shard count
/// its lookahead window cannot serve).
pub(crate) fn on_every_stack<R>(
    policy: HonestPolicy,
    roles: Option<AdversaryRoles>,
    scale: &Scale,
    shards: usize,
    workers: Option<usize>,
    mut drive: impl FnMut(Stack, &mut dyn WorkloadTarget) -> R,
) -> Result<Vec<R>, String> {
    fn bootstrap<M: Mode + 'static>(
        mut sim: Sharded<BoxedNode, M>,
        scale: &Scale,
        workers: Option<usize>,
    ) -> Box<dyn WorkloadTarget> {
        scenario::seed_tree(&mut sim, scale.nodes);
        if let Some(w) = workers {
            sim.set_workers(w);
        }
        Box::new(sim)
    }

    let factory = role_factory(policy, roles);
    let event = EventConfig {
        period: 1000,
        jitter: 200,
        latency: LatencyModel::Uniform { min: 10, max: 200 },
        loss_probability: 0.01,
    };
    (Stack::ALL.into_iter())
        .map(|stack| {
            let (seed, factory) = (scale.seed, factory.clone());
            let mut target = match stack {
                Stack::Cycle => bootstrap(
                    ShardedSimulation::with_factory(seed, shards, factory),
                    scale,
                    workers,
                ),
                Stack::Event => bootstrap(
                    ShardedEventSimulation::with_factory(event, seed, shards, factory)
                        .map_err(|e| e.to_string())?,
                    scale,
                    workers,
                ),
            };
            Ok(drive(stack, &mut *target))
        })
        .collect()
}

/// End-of-run overlay health: the worst over every stack's end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    /// Largest live component as a fraction of the live population.
    pub component: f64,
    /// Dead view entries as a fraction of all view entries.
    pub dead: f64,
}

impl Health {
    /// The smallest component and the largest dead-link fraction of
    /// `ends` (a perfect overlay when there are none).
    pub fn worst<'a>(ends: impl IntoIterator<Item = &'a PeriodRecord>) -> Health {
        let (mut component, mut dead) = (1.0_f64, 0.0_f64);
        for r in ends {
            component = component.min(r.component_fraction());
            dead = dead.max(r.dead_link_fraction());
        }
        Health { component, dead }
    }

    /// `{key}: component` ≥ 0.95: the largest component holds ≥ 95 % of
    /// the live population.
    pub fn connected(self, key: &str) -> Cell {
        let component = format!("{key}: component");
        Cell::new(component, self.component, Cmp::AtLeast, 0.95)
    }

    /// The cross-stack gates' health test: [`Health::connected`], and
    /// `{key}: dead links` ≤ 0.10 of view entries.
    pub fn healthy(self, key: &str) -> [Cell; 2] {
        let dead = Cell::new(format!("{key}: dead links"), self.dead, Cmp::AtMost, 0.10);
        [self.connected(key), dead]
    }
}

#[cfg(test)]
/// Asserts the cross-stack membership contract: one `(stack, membership)`
/// per stack in [`Stack::ALL`] order, all memberships equal. The compiled
/// schedule fixes membership, so only a stack that broke it can differ.
pub(crate) fn assert_same_membership<K: PartialEq + std::fmt::Debug>(
    per_stack: impl IntoIterator<Item = (Stack, K)>,
) {
    let (stacks, memberships): (Vec<Stack>, Vec<K>) = per_stack.into_iter().unzip();
    assert_eq!(stacks, Stack::ALL, "one result per stack, in run order");
    for (stack, membership) in stacks.iter().zip(&memberships) {
        assert_eq!(
            membership, &memberships[0],
            "{stack:?} breaks the membership contract"
        );
    }
}

#[cfg(test)]
/// What the compiled schedule fixes of a period record on every stack.
pub(crate) fn membership(r: &PeriodRecord) -> (u64, usize, usize, usize, bool) {
    (r.period, r.live, r.killed, r.joined, r.partitioned)
}
