//! Declarative, seed-deterministic membership-dynamics schedules that run
//! identically on every engine **and** on the deployed network runtime.
//!
//! The paper's evaluation is scenario-driven — bootstrapping, catastrophic
//! failure (Section 7), sustained membership change — but each scenario
//! used to be hand-rolled per driver. A [`Workload`] names the scenario
//! once as a sequence of [`PhaseSpec`]s (quiet windows, churn phases,
//! catastrophic kills, flash-crowd bulk joins, growth from the oldest node,
//! network partition/heal) and **compiles** it, from a seed and the initial
//! population size alone, down to concrete per-period operations ([`Op`]):
//! *this* node dies at period 12, *this* node joins at period 15
//! bootstrapping off *these* contacts.
//!
//! Because the compiled schedule fixes the full membership trajectory up
//! front, the same [`CompiledWorkload`] drives the cycle engines, the
//! event engines and the loopback UDP cluster through the same sequence of
//! joins, failures and partitions — anything that executes the small
//! [`WorkloadTarget`] trait. Every stack's per-period view rows are reduced
//! by the same function, [`measure_rows`]: one streaming pass over the rows
//! (the pass behind [`StreamingMetrics`](crate::StreamingMetrics)), with no
//! graph built. So recovery trajectories are directly comparable: the
//! conformance suite pins the simulated and deployed stacks against each
//! other on exactly this path.
//!
//! # Determinism
//!
//! Compilation draws victims and join contacts from its own seeded RNG and
//! rounds fractional churn rates through the carry accumulator
//! ([`RateAccumulator`]) — no stochastic rounding, no dependence on
//! the target's RNG streams. Running a compiled workload on a sharded
//! engine therefore inherits the engine's own contract: bit-identical
//! results per `(seed, shard_count)` at any worker count.
//!
//! # Partitions
//!
//! A [`Partition`] is a *loss matrix*, not a membership change: node `i`
//! belongs to group `i mod groups`, and while the partition is installed
//! every engine and the network runtime silently drop messages whose
//! endpoints sit in different groups (counted as dropped/blocked traffic).
//! Healing lifts the matrix. Views are untouched — whether the overlay
//! re-merges after a heal depends on whether any cross-group descriptors
//! survived view selection, which is precisely the experiment.
//!
//! # Schedule grammar
//!
//! [`Workload::parse`] accepts a compact comma-separated schedule string
//! (used by the `matrix` experiment command's `--schedule` flag):
//!
//! ```text
//! quiet:P          P quiet periods (gossip only)
//! churn:RxP        balanced churn at rate R per period, for P periods
//! churn:L/JxP      independent leave rate L and join rate J
//! kill:F           catastrophic kill of fraction F (instantaneous)
//! flash:N          flash crowd: N simultaneous joins (instantaneous)
//! grow:M/J         M joins, J per period for ⌈M/J⌉ periods (the last adds
//!                  the rest), each knowing only the oldest (smallest) live id
//! part:GxP         total partition into G groups for P periods, heal
//! part:GxP@L       lossy partition: cross-group loss probability L
//! part:GxP@L1/L2   asymmetric: lower→higher group loss L1, reverse L2
//! adv:K@F          fraction F of the initial ids run attack K
//!                  (hub | liar | forge); at most one adv item
//! adv:eclipse@F>victims:N   eclipse attack against the N smallest
//!                  honest ids
//! ( … )xR          repeat a group of phases R times (no nesting)
//! phase[k=v,…]     per-phase overrides: churn:0.01x5[contacts=7],
//!                  flash:40[herd] (thundering herd: all N joiners
//!                  hammer one shared introducer)
//! ```
//!
//! Phases that would silently compile to nothing — `quiet:0`, churn with
//! both rates zero, a `@0` lossless partition — are typed parse errors
//! ([`ScheduleErrorKind`]), not accepted no-ops.
//!
//! Adversary placement is not a phase: it declares which initial ids are
//! Byzantine ([`pss_core::adversary`]) for the whole run. Roles compile to
//! a pure per-id assignment ([`AdversaryRoles`]), so the same ids attack on
//! every engine and transport; late joiners are always honest.
//!
//! Example — the conformance suite's headline schedule, a converged-start
//! catastrophe with churned recovery:
//!
//! ```text
//! quiet:10,kill:0.5,churn:0.01x20
//! ```

use pss_core::adversary::{AdversaryKind, AdversaryRoles, AdversarySpec};
use pss_core::{GossipNode, NodeDescriptor, NodeId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::snapshot::RowPass;
use crate::{Mode, Sharded};

/// A group-pair loss matrix over the id space: node `i` belongs to group
/// `i mod groups`, and while the partition is installed, cross-group
/// traffic is dropped with the configured loss probability — `1.0` is the
/// classic total blackout, anything below it a degraded (lossy) partition
/// where rare crossings still succeed. The two directions can differ
/// ([`Partition::asymmetric`]): `fwd` applies to messages from a lower-
/// numbered group to a higher one, `bwd` to the reverse, modelling
/// asymmetric-route failures where one direction degrades harder.
///
/// Loss probabilities are quantized to permille (1/1000) so a partition
/// stays a compact `Copy + Eq` value and the schedule grammar round-trips
/// exactly. At exactly `0.0` or `1.0` the drop decision is made without
/// consuming engine randomness, which keeps total-blackout schedules
/// byte-identical to the historic boolean egress block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    groups: u32,
    /// Permille loss for lower-group → higher-group traffic.
    fwd_permille: u16,
    /// Permille loss for higher-group → lower-group traffic.
    bwd_permille: u16,
}

/// Quantizes a loss probability to permille, asserting it is a valid
/// probability.
fn loss_permille(loss: f64) -> u16 {
    assert!(
        (0.0..=1.0).contains(&loss),
        "loss probability must be within [0, 1], got {loss}"
    );
    (loss * 1000.0).round() as u16
}

impl Partition {
    /// A total partition into `groups` groups: all cross-group traffic is
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2` (one group blocks nothing).
    pub fn new(groups: u32) -> Self {
        Partition::asymmetric(groups, 1.0, 1.0)
    }

    /// A lossy partition: cross-group traffic is dropped with probability
    /// `loss` in both directions.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2` or `loss` is outside `[0, 1]`.
    pub fn lossy(groups: u32, loss: f64) -> Self {
        Partition::asymmetric(groups, loss, loss)
    }

    /// An asymmetric lossy partition: messages from a lower-numbered group
    /// to a higher one are dropped with probability `fwd`, the reverse
    /// direction with probability `bwd`.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2` or either loss is outside `[0, 1]`.
    pub fn asymmetric(groups: u32, fwd: f64, bwd: f64) -> Self {
        assert!(groups >= 2, "a partition needs at least two groups");
        Partition {
            groups,
            fwd_permille: loss_permille(fwd),
            bwd_permille: loss_permille(bwd),
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// The group of `id`.
    pub fn group_of(&self, id: NodeId) -> u32 {
        (id.as_u64() % u64::from(self.groups)) as u32
    }

    /// True if every cross-group direction is a total blackout.
    pub fn is_total(&self) -> bool {
        self.fwd_permille == 1000 && self.bwd_permille == 1000
    }

    /// True if traffic from `a` to `b` is deterministically blocked
    /// (different groups and that direction's loss is `1.0`).
    pub fn blocks(&self, a: NodeId, b: NodeId) -> bool {
        let (ag, bg) = (self.group_of(a), self.group_of(b));
        if ag == bg {
            return false;
        }
        let permille = if ag < bg {
            self.fwd_permille
        } else {
            self.bwd_permille
        };
        permille == 1000
    }

    /// Decides whether the matrix drops a message from `from` to `to`.
    /// Consumes one RNG draw only for genuinely probabilistic losses:
    /// same-group traffic, loss `0.0` and loss `1.0` all short-circuit, so
    /// total-blackout schedules consume no randomness (the historic
    /// behavior the pinned digests cover).
    pub fn drops<R: rand::Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> bool {
        let (fg, tg) = (self.group_of(from), self.group_of(to));
        if fg == tg {
            return false;
        }
        let permille = if fg < tg {
            self.fwd_permille
        } else {
            self.bwd_permille
        };
        match permille {
            0 => false,
            1000 => true,
            p => rng.random::<f64>() < f64::from(p) / 1000.0,
        }
    }

    /// Formats the grammar suffix for this matrix: empty for a total
    /// partition, `@L` for a symmetric lossy one, `@L1/L2` when the
    /// directions differ.
    fn loss_suffix(&self) -> String {
        fn permille_str(p: u16) -> String {
            format!("{}", f64::from(p) / 1000.0)
        }
        if self.is_total() {
            String::new()
        } else if self.fwd_permille == self.bwd_permille {
            format!("@{}", permille_str(self.fwd_permille))
        } else {
            format!(
                "@{}/{}",
                permille_str(self.fwd_permille),
                permille_str(self.bwd_permille)
            )
        }
    }
}

/// One phase of a workload schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseSpec {
    /// `periods` gossip periods with no membership events.
    Quiet {
        /// Length in periods.
        periods: u64,
    },
    /// Sustained churn: per-period leave/join rates as fractions of the
    /// live population, for `periods` periods.
    Churn {
        /// Length in periods.
        periods: u64,
        /// Per-period departure rate.
        leave_rate: f64,
        /// Per-period arrival rate.
        join_rate: f64,
        /// Per-phase override of the workload's contacts-per-join.
        contacts: Option<usize>,
    },
    /// Instantaneous catastrophic kill of `fraction` of the live
    /// population, at the next period boundary.
    Catastrophe {
        /// Fraction of live nodes killed, within `[0, 1]`.
        fraction: f64,
    },
    /// Instantaneous flash crowd: `joins` nodes join at the next period
    /// boundary, each bootstrapping off random live contacts — or, in the
    /// thundering-herd variant, all hammering one shared introducer.
    FlashCrowd {
        /// Number of simultaneous joins.
        joins: usize,
        /// Per-phase override of the workload's contacts-per-join.
        contacts: Option<usize>,
        /// Thundering herd: every joiner bootstraps off the *same* single
        /// introducer, picked once from the live population.
        herd: bool,
    },
    /// Growth: `joins` nodes join, `per_period` at a time, one period per
    /// batch (the last batch holds the remainder). Each joiner knows only
    /// the oldest live node at its period's boundary — the smallest live
    /// id, or nobody in an empty population. Draws nothing from the
    /// compile RNG.
    Grow {
        /// Total joins.
        joins: usize,
        /// Joins per period (the last period may hold fewer).
        per_period: usize,
    },
    /// Network partition (a group-pair loss matrix) for `periods`
    /// periods; the matrix lifts (heals) at the boundary after the last
    /// period.
    Partition {
        /// The loss matrix to install.
        partition: Partition,
        /// Length in periods.
        periods: u64,
    },
}

/// The family of grammar defect a [`ScheduleParseError`] reports — typed
/// so callers (and tests) can distinguish a syntax typo from a phase that
/// would silently do nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleErrorKind {
    /// The item does not match the grammar's shape (`kind:spec`, missing
    /// separators, unparsable numbers).
    Syntax,
    /// An unknown phase kind.
    UnknownKind,
    /// A phase spanning zero periods (or a flash or growth of zero joins):
    /// it would compile to nothing and silently vanish from the schedule.
    ZeroLength,
    /// A rate or loss of zero that would make the phase a disguised quiet
    /// phase (churn with both rates 0, a lossless partition, kill of
    /// fraction 0).
    ZeroRate,
    /// A value outside its legal range (fractions beyond `[0, 1]`, fewer
    /// than two partition groups).
    OutOfRange,
    /// An unknown `adv:` kind, or a malformed adversary placement.
    Adversary,
    /// A malformed or unsupported `[k=v]` phase override.
    Override,
    /// A malformed `( … )xR` repetition group.
    Repetition,
}

/// Why a schedule string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// The offending schedule item.
    pub item: String,
    /// What was wrong with it.
    pub reason: String,
    /// The typed defect family.
    pub kind: ScheduleErrorKind,
}

impl std::fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad schedule item `{}`: {}", self.item, self.reason)
    }
}

impl std::error::Error for ScheduleParseError {}

/// Deterministic fractional-rate rounding: converts a stream of expected
/// per-step counts into integers by carrying the fractional remainder
/// forward.
///
/// After any number of steps the emitted total differs from the exact sum
/// of expectations by strictly less than one (the outstanding carry), so
/// `k` steps at a constant expectation `r·N` emit `⌊r·N·k⌋` or `⌈r·N·k⌉`
/// events — never drifting, never random. [`Workload::compile`] rounds
/// every churn phase through one accumulator per direction, which is what
/// makes the membership trajectory identical across engines and the
/// deployed runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateAccumulator {
    carry: f64,
}

impl RateAccumulator {
    /// A fresh accumulator with zero carry.
    pub fn new() -> Self {
        RateAccumulator::default()
    }

    /// Adds `expected` events to the accumulator and returns the integer
    /// count due now; the fractional remainder carries to the next step.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is negative or not finite.
    pub fn step(&mut self, expected: f64) -> usize {
        assert!(
            expected >= 0.0 && expected.is_finite(),
            "expected count must be a non-negative finite number"
        );
        self.carry += expected;
        let due = self.carry.floor();
        self.carry -= due;
        due as usize
    }

    /// The outstanding fractional carry, always in `[0, 1)`.
    pub fn carry(&self) -> f64 {
        self.carry
    }
}

/// How many random live contacts each joiner bootstraps off, unless the
/// phase overrides it (`[contacts=K]`).
const CONTACTS_PER_JOIN: usize = 3;

/// A declarative membership-dynamics schedule; see the [module
/// docs](self). Build with [`Workload::parse`] — the grammar is the only
/// constructor — then [`Workload::compile`] against an initial population
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    seed: u64,
    phases: Vec<PhaseSpec>,
    adversary: Option<AdversarySpec>,
}

impl Workload {
    /// An empty workload; all compilation randomness derives from `seed`.
    fn new(seed: u64) -> Self {
        Workload {
            seed,
            phases: Vec::new(),
            adversary: None,
        }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Parses the schedule grammar (see the [module docs](self)) on top of
    /// a fresh workload.
    ///
    /// # Errors
    ///
    /// [`ScheduleParseError`] naming the first malformed item, with a
    /// typed [`ScheduleErrorKind`]. Phases that would silently compile to
    /// nothing — zero-length phases, churn with both rates zero, lossless
    /// partitions — are rejected rather than swallowed.
    pub fn parse(schedule: &str, seed: u64) -> Result<Self, ScheduleParseError> {
        let mut workload = Workload::new(seed);
        for item in split_items(schedule) {
            let item = item.map_err(|reason| ScheduleParseError {
                item: schedule.trim().to_owned(),
                reason,
                kind: ScheduleErrorKind::Repetition,
            })?;
            match item {
                ScheduleItem::Single(text) => parse_item(&mut workload, text)?,
                ScheduleItem::Group { body, repeats } => {
                    let bad = |reason: &str, kind| ScheduleParseError {
                        item: format!("({body})x{repeats}"),
                        reason: reason.to_owned(),
                        kind,
                    };
                    if repeats == 0 {
                        return Err(bad(
                            "a repetition of zero would erase the group",
                            ScheduleErrorKind::ZeroLength,
                        ));
                    }
                    let start = workload.phases.len();
                    let had_adversary = workload.adversary.is_some();
                    for inner in split_items(body) {
                        match inner {
                            Ok(ScheduleItem::Single(text)) => parse_item(&mut workload, text)?,
                            Ok(ScheduleItem::Group { .. }) => {
                                return Err(bad(
                                    "repetition groups do not nest",
                                    ScheduleErrorKind::Repetition,
                                ))
                            }
                            Err(reason) => {
                                return Err(ScheduleParseError {
                                    item: body.to_owned(),
                                    reason,
                                    kind: ScheduleErrorKind::Repetition,
                                })
                            }
                        }
                    }
                    if workload.adversary.is_some() && !had_adversary {
                        return Err(bad(
                            "adversary placement is global and cannot repeat",
                            ScheduleErrorKind::Repetition,
                        ));
                    }
                    if workload.phases.len() == start {
                        return Err(bad("empty repetition group", ScheduleErrorKind::ZeroLength));
                    }
                    let body_phases = workload.phases[start..].to_vec();
                    for _ in 1..repeats {
                        workload.phases.extend(body_phases.iter().copied());
                    }
                }
            }
        }
        Ok(workload)
    }

    /// Compiles the schedule for an initial population of ids
    /// `0..initial_nodes`, fixing every membership event up front. The
    /// result depends only on `(schedule, seed, initial_nodes)`.
    pub fn compile(&self, initial_nodes: usize) -> CompiledWorkload {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0x3057_10ad_5c8e_d01e);
        // The live membership as compilation tracks it. Kills remove by
        // swap, joins push — selection over this vec with the compile RNG
        // is what makes victims/contacts pure functions of the seed.
        let mut live: Vec<NodeId> = (0..initial_nodes as u64).map(NodeId::new).collect();
        let mut next_id = initial_nodes as u64;
        let mut steps: Vec<Step> = Vec::new();
        // Instantaneous phases buffer their ops into the next period step.
        let mut pending: Vec<Op> = Vec::new();

        fn kill_into(ops: &mut Vec<Op>, live: &mut Vec<NodeId>, count: usize, rng: &mut SmallRng) {
            for _ in 0..count.min(live.len()) {
                let pick = rand::Rng::random_range(rng, 0..live.len());
                let victim = live.swap_remove(pick);
                ops.push(Op::Kill(victim));
            }
        }
        // Joins `count` fresh ids, each knowing the contacts `pick` chooses
        // from the live nodes before it.
        fn join_into(
            ops: &mut Vec<Op>,
            live: &mut Vec<NodeId>,
            next_id: &mut u64,
            count: usize,
            mut pick: impl FnMut(&mut Vec<NodeId>) -> Vec<NodeId>,
        ) {
            for _ in 0..count {
                let contacts = pick(live);
                let id = NodeId::new(*next_id);
                *next_id += 1;
                live.push(id);
                ops.push(Op::Join { id, contacts });
            }
        }
        // `k` distinct live contacts drawn with the compile RNG.
        fn random(
            k: usize,
            rng: &mut SmallRng,
        ) -> impl FnMut(&mut Vec<NodeId>) -> Vec<NodeId> + '_ {
            move |live| {
                let picks = k.min(live.len());
                live.partial_shuffle(rng, picks).0.to_vec()
            }
        }

        for phase in &self.phases {
            match *phase {
                PhaseSpec::Quiet { periods } => {
                    for _ in 0..periods {
                        steps.push(Step {
                            ops: std::mem::take(&mut pending),
                        });
                    }
                }
                PhaseSpec::Churn {
                    periods,
                    leave_rate,
                    join_rate,
                    contacts,
                } => {
                    let contacts = contacts.unwrap_or(CONTACTS_PER_JOIN);
                    let mut leaves = RateAccumulator::new();
                    let mut joins = RateAccumulator::new();
                    for _ in 0..periods {
                        let mut ops = std::mem::take(&mut pending);
                        let n = live.len() as f64;
                        kill_into(&mut ops, &mut live, leaves.step(n * leave_rate), &mut rng);
                        let count = joins.step(n * join_rate);
                        let pick = random(contacts, &mut rng);
                        join_into(&mut ops, &mut live, &mut next_id, count, pick);
                        steps.push(Step { ops });
                    }
                }
                PhaseSpec::Catastrophe { fraction } => {
                    let count = (live.len() as f64 * fraction).round() as usize;
                    kill_into(&mut pending, &mut live, count, &mut rng);
                }
                PhaseSpec::FlashCrowd {
                    joins,
                    contacts,
                    herd,
                } => {
                    if herd && !live.is_empty() {
                        // Thundering herd: one introducer, picked once,
                        // shared by every joiner in the flash.
                        let pick = rand::Rng::random_range(&mut rng, 0..live.len());
                        let introducer = live[pick];
                        join_into(&mut pending, &mut live, &mut next_id, joins, |_| {
                            vec![introducer]
                        });
                    } else {
                        let pick = random(contacts.unwrap_or(CONTACTS_PER_JOIN), &mut rng);
                        join_into(&mut pending, &mut live, &mut next_id, joins, pick);
                    }
                }
                PhaseSpec::Grow { joins, per_period } => {
                    for start in (0..joins).step_by(per_period) {
                        let mut ops = std::mem::take(&mut pending);
                        // "The view of these nodes is initialized with
                        // only a single node descriptor, which belongs to
                        // the oldest, initial node."
                        let oldest: Vec<NodeId> = live.iter().min().copied().into_iter().collect();
                        let count = per_period.min(joins - start);
                        join_into(&mut ops, &mut live, &mut next_id, count, |_| oldest.clone());
                        steps.push(Step { ops });
                    }
                }
                PhaseSpec::Partition { partition, periods } => {
                    pending.push(Op::SetPartition(Some(partition)));
                    for _ in 0..periods {
                        steps.push(Step {
                            ops: std::mem::take(&mut pending),
                        });
                    }
                    pending.push(Op::SetPartition(None));
                }
            }
        }
        if !pending.is_empty() {
            // Trailing instantaneous ops (or a final heal) get one period
            // to act on, so their effect is observable.
            steps.push(Step { ops: pending });
        }
        CompiledWorkload {
            initial_nodes,
            id_space: next_id as usize,
            steps,
            adversary: self
                .adversary
                .map(|spec| AdversaryRoles::new(spec, initial_nodes as u64)),
        }
    }
}

/// One lexed top-level schedule item: a plain `kind:spec` phrase or a
/// `( … )xR` repetition group.
enum ScheduleItem<'a> {
    Single(&'a str),
    Group { body: &'a str, repeats: u64 },
}

/// Lexes a schedule string into top-level items: splits on commas that are
/// not inside parentheses or brackets, and recognizes `( … )xR` groups.
/// Yields `Err(reason)` items for unbalanced delimiters or malformed group
/// suffixes.
fn split_items(schedule: &str) -> impl Iterator<Item = Result<ScheduleItem<'_>, String>> {
    let mut rest = schedule;
    let mut failed = false;
    std::iter::from_fn(move || loop {
        if failed || rest.is_empty() {
            return None;
        }
        let mut depth = 0u32;
        let mut split = rest.len();
        for (i, ch) in rest.char_indices() {
            match ch {
                '(' | '[' => depth += 1,
                ')' | ']' => {
                    if depth == 0 {
                        failed = true;
                        return Some(Err(format!("unbalanced `{ch}`")));
                    }
                    depth -= 1;
                }
                ',' if depth == 0 => {
                    split = i;
                    break;
                }
                _ => {}
            }
        }
        if depth != 0 && split == rest.len() {
            failed = true;
            return Some(Err("unbalanced `(`".to_owned()));
        }
        let item = rest[..split].trim();
        rest = rest.get(split + 1..).unwrap_or("");
        if item.is_empty() {
            continue;
        }
        if let Some(after_open) = item.strip_prefix('(') {
            let Some(close) = after_open.rfind(')') else {
                failed = true;
                return Some(Err("unbalanced `(`".to_owned()));
            };
            let body = &after_open[..close];
            let suffix = after_open[close + 1..].trim();
            let Some(repeats) = suffix
                .strip_prefix('x')
                .and_then(|r| r.trim().parse::<u64>().ok())
            else {
                failed = true;
                return Some(Err(format!(
                    "expected `( … )xR` repetition suffix, got `{suffix}`"
                )));
            };
            return Some(Ok(ScheduleItem::Group { body, repeats }));
        }
        return Some(Ok(ScheduleItem::Single(item)));
    })
}

/// Parsed `[k=v, …]` override suffix of one schedule item.
#[derive(Default)]
struct PhaseOverrides {
    contacts: Option<usize>,
    herd: bool,
}

/// Splits `spec[k=v,…]` into the bare spec and its overrides. `allow`
/// names the overrides this phase kind accepts.
fn parse_overrides<'a>(
    spec: &'a str,
    allow_contacts: bool,
    allow_herd: bool,
    bad: &impl Fn(&str, ScheduleErrorKind) -> ScheduleParseError,
) -> Result<(&'a str, PhaseOverrides), ScheduleParseError> {
    let Some(open) = spec.find('[') else {
        return Ok((spec, PhaseOverrides::default()));
    };
    let Some(rest) = spec[open..]
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
    else {
        return Err(bad(
            "overrides must be a trailing `[k=v,…]` suffix",
            ScheduleErrorKind::Override,
        ));
    };
    let mut overrides = PhaseOverrides::default();
    for entry in rest.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match entry.split_once('=') {
            Some(("contacts", v)) if allow_contacts => {
                let contacts: usize = v
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad contacts count", ScheduleErrorKind::Override))?;
                if contacts == 0 {
                    return Err(bad(
                        "contacts must be at least 1 — zero-contact joiners are marooned",
                        ScheduleErrorKind::Override,
                    ));
                }
                overrides.contacts = Some(contacts);
            }
            None if entry == "herd" && allow_herd => overrides.herd = true,
            _ => {
                return Err(bad(
                    &format!("unsupported override `{entry}` for this phase"),
                    ScheduleErrorKind::Override,
                ))
            }
        }
    }
    if overrides.herd && overrides.contacts.is_some() {
        return Err(bad(
            "herd implies a single shared introducer; contacts cannot be overridden",
            ScheduleErrorKind::Override,
        ));
    }
    Ok((&spec[..open], overrides))
}

/// Parses one `kind:spec` item into `workload`.
fn parse_item(workload: &mut Workload, item: &str) -> Result<(), ScheduleParseError> {
    let bad = |reason: &str, kind: ScheduleErrorKind| ScheduleParseError {
        item: item.to_owned(),
        reason: reason.to_owned(),
        kind,
    };
    let syntax = |reason: &str| bad(reason, ScheduleErrorKind::Syntax);
    let (kind, spec) = item
        .split_once(':')
        .ok_or_else(|| syntax("expected `kind:spec`"))?;
    match kind {
        "quiet" => {
            let (spec, _) = parse_overrides(spec, false, false, &bad)?;
            let periods: u64 = spec.parse().map_err(|_| syntax("bad period count"))?;
            if periods == 0 {
                return Err(bad(
                    "a zero-length phase would silently vanish",
                    ScheduleErrorKind::ZeroLength,
                ));
            }
            workload.phases.push(PhaseSpec::Quiet { periods });
        }
        "churn" => {
            let (spec, overrides) = parse_overrides(spec, true, false, &bad)?;
            let (rates, periods) = spec
                .split_once('x')
                .ok_or_else(|| syntax("expected `churn:RxP`"))?;
            let periods: u64 = periods.parse().map_err(|_| syntax("bad period count"))?;
            let (leave, join): (f64, f64) = match rates.split_once('/') {
                Some((l, j)) => (
                    l.parse().map_err(|_| syntax("bad leave rate"))?,
                    j.parse().map_err(|_| syntax("bad join rate"))?,
                ),
                None => {
                    let r: f64 = rates.parse().map_err(|_| syntax("bad rate"))?;
                    (r, r)
                }
            };
            if !(leave >= 0.0 && leave.is_finite() && join >= 0.0 && join.is_finite()) {
                return Err(bad(
                    "rates must be non-negative finite numbers",
                    ScheduleErrorKind::OutOfRange,
                ));
            }
            if periods == 0 {
                return Err(bad(
                    "a zero-length phase would silently vanish",
                    ScheduleErrorKind::ZeroLength,
                ));
            }
            if leave == 0.0 && join == 0.0 {
                return Err(bad(
                    "churn with both rates zero is a disguised quiet phase — say quiet:P",
                    ScheduleErrorKind::ZeroRate,
                ));
            }
            workload.phases.push(PhaseSpec::Churn {
                periods,
                leave_rate: leave,
                join_rate: join,
                contacts: overrides.contacts,
            });
        }
        "kill" => {
            let (spec, _) = parse_overrides(spec, false, false, &bad)?;
            let fraction: f64 = spec.parse().map_err(|_| syntax("bad fraction"))?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(bad(
                    "fraction must be within [0, 1]",
                    ScheduleErrorKind::OutOfRange,
                ));
            }
            if fraction == 0.0 {
                return Err(bad(
                    "a kill of fraction 0 does nothing",
                    ScheduleErrorKind::ZeroRate,
                ));
            }
            workload.phases.push(PhaseSpec::Catastrophe { fraction });
        }
        "flash" => {
            let (spec, overrides) = parse_overrides(spec, true, true, &bad)?;
            let joins: usize = spec.parse().map_err(|_| syntax("bad join count"))?;
            if joins == 0 {
                return Err(bad(
                    "a flash crowd of zero joins does nothing",
                    ScheduleErrorKind::ZeroLength,
                ));
            }
            workload.phases.push(PhaseSpec::FlashCrowd {
                joins,
                contacts: overrides.contacts,
                herd: overrides.herd,
            });
        }
        "grow" => {
            let (spec, _) = parse_overrides(spec, false, false, &bad)?;
            let counts = spec.split_once('/').map(|(m, j)| (m.parse(), j.parse()));
            let Some((Ok(joins), Ok(per_period))) = counts else {
                return Err(syntax("expected `grow:M/J` with counts M and J"));
            };
            if joins == 0 || per_period == 0 {
                let reason = "growth by zero joins, or zero per period, does nothing";
                return Err(bad(reason, ScheduleErrorKind::ZeroLength));
            }
            workload.phases.push(PhaseSpec::Grow { joins, per_period });
        }
        "part" => {
            let (spec, _) = parse_overrides(spec, false, false, &bad)?;
            let (shape, loss) = match spec.split_once('@') {
                Some((shape, loss)) => (shape, Some(loss)),
                None => (spec, None),
            };
            let (groups, periods) = shape
                .split_once('x')
                .ok_or_else(|| syntax("expected `part:GxP[@L[/L2]]`"))?;
            let groups: u32 = groups.parse().map_err(|_| syntax("bad group count"))?;
            if groups < 2 {
                return Err(bad(
                    "need at least two groups",
                    ScheduleErrorKind::OutOfRange,
                ));
            }
            let periods: u64 = periods.parse().map_err(|_| syntax("bad period count"))?;
            if periods == 0 {
                return Err(bad(
                    "a zero-length phase would silently vanish",
                    ScheduleErrorKind::ZeroLength,
                ));
            }
            let (fwd, bwd): (f64, f64) = match loss {
                None => (1.0, 1.0),
                Some(loss) => match loss.split_once('/') {
                    Some((f, b)) => (
                        f.parse().map_err(|_| syntax("bad forward loss"))?,
                        b.parse().map_err(|_| syntax("bad backward loss"))?,
                    ),
                    None => {
                        let l: f64 = loss.parse().map_err(|_| syntax("bad loss"))?;
                        (l, l)
                    }
                },
            };
            if !((0.0..=1.0).contains(&fwd) && (0.0..=1.0).contains(&bwd)) {
                return Err(bad(
                    "loss probabilities must be within [0, 1]",
                    ScheduleErrorKind::OutOfRange,
                ));
            }
            let partition = Partition::asymmetric(groups, fwd, bwd);
            if partition.fwd_permille == 0 && partition.bwd_permille == 0 {
                return Err(bad(
                    "a lossless partition blocks nothing — say quiet:P",
                    ScheduleErrorKind::ZeroRate,
                ));
            }
            workload
                .phases
                .push(PhaseSpec::Partition { partition, periods });
        }
        "adv" => {
            let advbad = |reason: &str| bad(reason, ScheduleErrorKind::Adversary);
            let (kind, rest) = spec
                .split_once('@')
                .ok_or_else(|| advbad("expected `adv:kind@fraction`"))?;
            let kind: AdversaryKind = kind
                .parse()
                .map_err(|e| bad(&format!("{e}"), ScheduleErrorKind::UnknownKind))?;
            let (fraction, victims) = match rest.split_once('>') {
                Some((f, extra)) => {
                    let victims = extra
                        .strip_prefix("victims:")
                        .ok_or_else(|| advbad("expected `>victims:N`"))?;
                    let victims: u64 = victims.parse().map_err(|_| advbad("bad victim count"))?;
                    (f, Some(victims))
                }
                None => (rest, None),
            };
            let fraction: f64 = fraction.parse().map_err(|_| advbad("bad fraction"))?;
            let adversary = match (kind, victims) {
                (AdversaryKind::Eclipse, Some(victims)) => {
                    AdversarySpec::eclipse(fraction, victims)
                }
                (AdversaryKind::Eclipse, None) => return Err(advbad("eclipse needs `>victims:N`")),
                (_, Some(_)) => return Err(advbad("only eclipse takes a victim set")),
                (kind, None) => AdversarySpec::new(kind, fraction),
            }
            .map_err(|e| advbad(&format!("{e}")))?;
            if workload.adversary.is_some() {
                return Err(advbad("at most one adv item per schedule"));
            }
            workload.adversary = Some(adversary);
        }
        other => {
            return Err(bad(
                &format!("unknown phase kind `{other}`"),
                ScheduleErrorKind::UnknownKind,
            ))
        }
    }
    Ok(())
}

impl std::fmt::Display for PhaseSpec {
    /// The phase in schedule-grammar form; [`Workload::parse`] accepts the
    /// output verbatim.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PhaseSpec::Quiet { periods } => write!(f, "quiet:{periods}"),
            PhaseSpec::Churn {
                periods,
                leave_rate,
                join_rate,
                contacts,
            } => {
                if leave_rate == join_rate {
                    write!(f, "churn:{leave_rate}x{periods}")?;
                } else {
                    write!(f, "churn:{leave_rate}/{join_rate}x{periods}")?;
                }
                if let Some(contacts) = contacts {
                    write!(f, "[contacts={contacts}]")?;
                }
                Ok(())
            }
            PhaseSpec::Catastrophe { fraction } => write!(f, "kill:{fraction}"),
            PhaseSpec::FlashCrowd {
                joins,
                contacts,
                herd,
            } => {
                write!(f, "flash:{joins}")?;
                if herd {
                    write!(f, "[herd]")?;
                } else if let Some(contacts) = contacts {
                    write!(f, "[contacts={contacts}]")?;
                }
                Ok(())
            }
            PhaseSpec::Grow { joins, per_period } => write!(f, "grow:{joins}/{per_period}"),
            PhaseSpec::Partition { partition, periods } => {
                write!(
                    f,
                    "part:{}x{}{}",
                    partition.groups(),
                    periods,
                    partition.loss_suffix()
                )
            }
        }
    }
}

impl std::fmt::Display for Workload {
    /// The canonical (flattened) schedule string: repetition groups are
    /// expanded and overrides normalized, and `Workload::parse(s, seed)`
    /// of the output reproduces the workload exactly — the grammar
    /// round-trip the proptests pin.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut sep = "";
        if let Some(adv) = &self.adversary {
            write!(f, "adv:{}@{}", adv.kind().token(), adv.fraction())?;
            if adv.kind() == AdversaryKind::Eclipse {
                write!(f, ">victims:{}", adv.victims())?;
            }
            sep = ",";
        }
        for phase in &self.phases {
            write!(f, "{sep}{phase}")?;
            sep = ",";
        }
        Ok(())
    }
}

/// One concrete membership operation, applied at a period boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Crash-stop (or gracefully leave, on the network runtime) one node.
    Kill(NodeId),
    /// One node joins with exactly this id, bootstrapping off exactly
    /// these contacts. Targets must assign ids sequentially, so the
    /// compiled id always matches — the conformance harness asserts it.
    Join {
        /// The id the target must assign.
        id: NodeId,
        /// Live contacts the joiner bootstraps off.
        contacts: Vec<NodeId>,
    },
    /// Installs (`Some`) or heals (`None`) a partition loss matrix.
    SetPartition(Option<Partition>),
}

/// The operations to apply *before* running one gossip period.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// Operations in application order.
    pub ops: Vec<Op>,
}

/// A fully-resolved schedule: every membership event of every period,
/// fixed at compile time. See [`Workload::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledWorkload {
    /// The initial population size the schedule was compiled for.
    pub initial_nodes: usize,
    /// Total id space touched by the run: initial nodes plus every join.
    pub id_space: usize,
    /// One step per gossip period.
    pub steps: Vec<Step>,
    /// Per-id Byzantine role assignment, if the schedule declared one.
    pub adversary: Option<AdversaryRoles>,
}

impl CompiledWorkload {
    /// Number of gossip periods the schedule spans.
    pub fn periods(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// What a workload drives: either engine ([`Sharded`] under any
/// [`Mode`]) or the deployed network stack (`pss-net` implements it for
/// its cluster of K runtimes, over UDP or the in-memory mesh).
pub trait WorkloadTarget {
    /// Kills (crash-stops or gracefully leaves) one node.
    fn kill(&mut self, id: NodeId) -> bool;

    /// Adds one node bootstrapped off `contacts`. Must assign exactly
    /// `id` — ids are sequential on every stack, and the compiled
    /// schedule's ids are the cross-stack membership contract.
    fn join(&mut self, id: NodeId, contacts: &[NodeId]);

    /// Installs or lifts the partition loss matrix.
    fn set_partition(&mut self, partition: Option<Partition>);

    /// Runs one gossip period (one cycle on the cycle engines, one period
    /// of virtual or wall time elsewhere).
    fn run_period(&mut self);

    /// Appends every live node's `(id, view targets)` in increasing id
    /// order.
    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>);
}

// The inherent methods of the same name win method resolution, so these
// forward to [`Sharded`]'s membership API, not to themselves.
impl<N: GossipNode + Send, M: Mode> WorkloadTarget for Sharded<N, M> {
    fn kill(&mut self, id: NodeId) -> bool {
        self.kill(id)
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        let got = self.add_node(contacts.iter().map(|&c| NodeDescriptor::fresh(c)));
        assert_eq!(
            got, id,
            "engine assigned id {got}, workload compiled id {id}"
        );
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        self.set_partition(partition);
    }

    fn run_period(&mut self) {
        self.run_cycle();
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        for id in self.alive_ids() {
            let view = self.view_of(id).expect("alive ids have views");
            rows.push((id, view.ids().collect()));
        }
    }
}

/// Overlay statistics of one period under a workload — the paper's
/// convergence metrics plus the self-healing and partition observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodRecord {
    /// 1-based period index.
    pub period: u64,
    /// Live nodes after this period.
    pub live: usize,
    /// Nodes killed at the period boundary.
    pub killed: usize,
    /// Nodes joined at the period boundary.
    pub joined: usize,
    /// Live nodes whose view is full (length = c).
    pub full_views: usize,
    /// Mean in-degree of the live-to-live view graph.
    pub in_degree_mean: f64,
    /// Standard deviation of the live-to-live in-degree.
    pub in_degree_sd: f64,
    /// View entries pointing at dead nodes, across all live views.
    pub dead_links: usize,
    /// Total view entries across all live views.
    pub total_links: usize,
    /// Largest connected component of the undirected live overlay.
    pub largest_component: usize,
    /// True while a partition loss matrix was installed.
    pub partitioned: bool,
}

impl PeriodRecord {
    /// Fraction of live nodes with full views.
    pub fn full_fraction(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.full_views as f64 / self.live as f64
        }
    }

    /// Fraction of view entries that are dead links (Figure 7's y-axis,
    /// normalized).
    pub fn dead_link_fraction(&self) -> f64 {
        if self.total_links == 0 {
            0.0
        } else {
            self.dead_links as f64 / self.total_links as f64
        }
    }

    /// Largest-component size as a fraction of the live population.
    pub fn component_fraction(&self) -> f64 {
        if self.live == 0 {
            0.0
        } else {
            self.largest_component as f64 / self.live as f64
        }
    }
}

/// Reduces one period's live view rows to a [`PeriodRecord`] in one
/// streaming pass over the rows — the same pass as
/// [`StreamingMetrics`](crate::StreamingMetrics), with one in-degree
/// counter and one union–find slot per id and no edge array.
///
/// `rows` must be sorted by increasing id below `id_space`. An edge of the
/// in-degree graph and the components counts iff its target has a row (as
/// in a CSR graph, a self-loop never counts and a repeat within a row
/// counts once); a view entry is a dead link iff `!is_live(target)`. The
/// in-degree mean and σ are summed in increasing id order.
///
/// # Panics
///
/// Panics if `rows` is not sorted by strictly increasing id, or a row id
/// is at or above `id_space`.
pub fn measure_rows(
    id_space: usize,
    rows: &[(NodeId, Vec<NodeId>)],
    is_live: impl Fn(NodeId) -> bool,
    view_size: usize,
) -> PeriodRecord {
    let pass = RowPass::from_rows(id_space, rows, |_| true);

    let n = rows.len().max(1) as f64;
    let mean = pass.in_degrees().map(f64::from).sum::<f64>() / n;
    let var = pass
        .in_degrees()
        .map(|d| {
            let diff = f64::from(d) - mean;
            diff * diff
        })
        .sum::<f64>()
        / n;

    let mut dead_links = 0;
    let mut total_links = 0;
    let mut full_views = 0;
    for (_, targets) in rows {
        total_links += targets.len();
        dead_links += targets.iter().filter(|&&t| !is_live(t)).count();
        full_views += usize::from(targets.len() == view_size);
    }

    PeriodRecord {
        period: 0,
        live: rows.len(),
        killed: 0,
        joined: 0,
        full_views,
        in_degree_mean: mean,
        in_degree_sd: var.sqrt(),
        dead_links,
        total_links,
        largest_component: pass.largest_component(),
        partitioned: false,
    }
}

/// Drives `target` through every step of a compiled workload: apply the
/// step's operations, run one period, snapshot. Returns one
/// [`PeriodRecord`] per period.
///
/// `view_size` is the protocol's `c`, for the full-view statistic.
pub fn run_workload<T: WorkloadTarget + ?Sized>(
    target: &mut T,
    compiled: &CompiledWorkload,
    view_size: usize,
) -> Vec<PeriodRecord> {
    run_workload_observed(target, compiled, view_size, &mut |_, _| {})
}

/// The per-period observer hook of [`run_workload_observed`]: receives the
/// 1-based period index and the sorted live view rows.
pub type PeriodObserver<'a> = dyn FnMut(u64, &[(NodeId, Vec<NodeId>)]) + 'a;

/// [`run_workload`] with a per-period observer: after each period's
/// snapshot, `observe` sees the 1-based period index and the sorted live
/// view rows. The overlay health auditor
/// ([`crate::audit`]) taps attacked runs through this hook without touching
/// the driver loop.
pub fn run_workload_observed<T: WorkloadTarget + ?Sized>(
    target: &mut T,
    compiled: &CompiledWorkload,
    view_size: usize,
    observe: &mut PeriodObserver<'_>,
) -> Vec<PeriodRecord> {
    // Killed ids, dense over the compiled id space.
    let mut dead = vec![false; compiled.id_space];
    let mut partitioned = false;
    let mut rows: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    let mut records = Vec::with_capacity(compiled.steps.len());
    let period_ns = pss_telemetry::global().histogram(
        "pss_workload_period_ns",
        "Wall time of one workload-driver period (ops + run + snapshot), nanoseconds",
    );
    let measure_ns = pss_telemetry::global().histogram(
        "pss_workload_measure_ns",
        "Wall time of one workload-driver snapshot (collect_rows + measure_rows), nanoseconds",
    );
    let ops_applied = pss_telemetry::global().counter(
        "pss_workload_ops_total",
        "Membership operations applied by the workload driver",
    );
    for (i, step) in compiled.steps.iter().enumerate() {
        let period_started = std::time::Instant::now();
        let period = i as u64 + 1;
        let mut killed = 0;
        let mut joined = 0;
        for op in &step.ops {
            let (label, subject) = match op {
                Op::Kill(id) => ("kill", id.as_index() as u64),
                Op::Join { id, .. } => ("join", id.as_index() as u64),
                Op::SetPartition(Some(_)) => ("partition_on", 0),
                Op::SetPartition(None) => ("partition_off", 0),
            };
            pss_telemetry::flight().record(
                pss_telemetry::EventKind::MembershipOp,
                label,
                subject,
                period,
            );
            ops_applied.inc();
            match op {
                Op::Kill(id) => {
                    // Compilation guarantees the victim is live; a false
                    // here means the target diverged from the schedule,
                    // which would otherwise only surface as a distant
                    // statistical assertion.
                    assert!(target.kill(*id), "kill of live node {id} was a no-op");
                    dead[id.as_index()] = true;
                    killed += 1;
                }
                Op::Join { id, contacts } => {
                    target.join(*id, contacts);
                    joined += 1;
                }
                Op::SetPartition(partition) => {
                    target.set_partition(*partition);
                    partitioned = partition.is_some();
                }
            }
        }
        target.run_period();
        let measure_started = std::time::Instant::now();
        rows.clear();
        target.collect_rows(&mut rows);
        // Ids outside the compiled id space are live.
        let is_live = |id: NodeId| !dead.get(id.as_index()).copied().unwrap_or(false);
        let mut record = measure_rows(compiled.id_space, &rows, is_live, view_size);
        measure_ns.record(measure_started.elapsed().as_nanos() as u64);
        record.period = period;
        record.killed = killed;
        record.joined = joined;
        record.partitioned = partitioned;
        observe(period, &rows);
        records.push(record);
        period_ns.record(period_started.elapsed().as_nanos() as u64);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario, ShardedSimulation};
    use pss_core::{PolicyTriple, ProtocolConfig};

    fn acceptance() -> Workload {
        Workload::parse("quiet:10,kill:0.5,churn:0.01x20", 7).unwrap()
    }

    fn compile(schedule: &str, seed: u64, nodes: usize) -> CompiledWorkload {
        Workload::parse(schedule, seed).unwrap().compile(nodes)
    }

    #[test]
    fn partition_groups_and_blocking() {
        let p = Partition::new(2);
        assert_eq!(p.groups(), 2);
        assert_eq!(p.group_of(NodeId::new(4)), 0);
        assert_eq!(p.group_of(NodeId::new(7)), 1);
        assert!(p.blocks(NodeId::new(0), NodeId::new(1)));
        assert!(!p.blocks(NodeId::new(2), NodeId::new(4)));
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn single_group_partition_rejected() {
        let _ = Partition::new(1);
    }

    #[test]
    fn parse_round_trips_the_builder() {
        assert_eq!(
            acceptance().phases(),
            &[
                PhaseSpec::Quiet { periods: 10 },
                PhaseSpec::Catastrophe { fraction: 0.5 },
                PhaseSpec::Churn {
                    periods: 20,
                    leave_rate: 0.01,
                    join_rate: 0.01,
                    contacts: None,
                },
            ]
        );
        assert_eq!(acceptance().seed, 7);
        let full = Workload::parse("churn:0.02/0.03x5,flash:40,part:2x3,quiet:1", 1).unwrap();
        assert_eq!(
            full.phases(),
            &[
                PhaseSpec::Churn {
                    periods: 5,
                    leave_rate: 0.02,
                    join_rate: 0.03,
                    contacts: None,
                },
                PhaseSpec::FlashCrowd {
                    joins: 40,
                    contacts: None,
                    herd: false,
                },
                PhaseSpec::Partition {
                    partition: Partition::new(2),
                    periods: 3
                },
                PhaseSpec::Quiet { periods: 1 },
            ]
        );
    }

    #[test]
    fn parse_extended_grammar() {
        // Repetition groups expand in place, preserving order.
        let repeated = Workload::parse("(churn:0.01x5,kill:0.3)x2,quiet:1", 3).unwrap();
        assert_eq!(
            repeated.phases(),
            Workload::parse("churn:0.01x5,kill:0.3,churn:0.01x5,kill:0.3,quiet:1", 3)
                .unwrap()
                .phases()
        );

        // Per-phase overrides and the herd variant.
        let overridden = Workload::parse("churn:0.01x5[contacts=7],flash:40[herd]", 1).unwrap();
        assert_eq!(
            overridden.phases(),
            &[
                PhaseSpec::Churn {
                    periods: 5,
                    leave_rate: 0.01,
                    join_rate: 0.01,
                    contacts: Some(7),
                },
                PhaseSpec::FlashCrowd {
                    joins: 40,
                    contacts: None,
                    herd: true,
                },
            ]
        );

        // Lossy and asymmetric partitions.
        let lossy = Workload::parse("part:2x20@0.98,part:3x4@0.9/0.5", 1).unwrap();
        assert_eq!(
            lossy.phases(),
            &[
                PhaseSpec::Partition {
                    partition: Partition::lossy(2, 0.98),
                    periods: 20
                },
                PhaseSpec::Partition {
                    partition: Partition::asymmetric(3, 0.9, 0.5),
                    periods: 4
                },
            ]
        );
    }

    #[test]
    fn lossy_partition_semantics() {
        use rand::SeedableRng;
        let total = Partition::new(2);
        assert!(total.is_total());
        assert!(total.blocks(NodeId::new(0), NodeId::new(1)));

        let lossy = Partition::lossy(2, 0.5);
        assert!(!lossy.is_total());
        assert!(!lossy.blocks(NodeId::new(0), NodeId::new(1)));

        let asym = Partition::asymmetric(2, 1.0, 0.25);
        // Group 0 → group 1 is a blackout; the reverse is only degraded.
        assert!(asym.blocks(NodeId::new(0), NodeId::new(1)));
        assert!(!asym.blocks(NodeId::new(1), NodeId::new(0)));

        // Extremes consume no randomness: identical rng state afterwards.
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert!(total.drops(NodeId::new(0), NodeId::new(1), &mut a));
        assert!(!total.drops(NodeId::new(0), NodeId::new(2), &mut a));
        assert_eq!(
            rand::Rng::random::<u64>(&mut a),
            rand::Rng::random::<u64>(&mut b)
        );
        // Intermediate losses do draw: the rng advances past its twin.
        let mut c = SmallRng::seed_from_u64(1);
        let mut d = SmallRng::seed_from_u64(1);
        let _ = lossy.drops(NodeId::new(0), NodeId::new(1), &mut c);
        assert_ne!(
            rand::Rng::random::<u64>(&mut c),
            rand::Rng::random::<u64>(&mut d)
        );
    }

    #[test]
    fn herd_flash_shares_one_introducer() {
        let compiled = compile("flash:20[herd]", 5, 50);
        let mut introducers: Vec<NodeId> = compiled.steps[0]
            .ops
            .iter()
            .map(|op| match op {
                Op::Join { contacts, .. } => {
                    assert_eq!(contacts.len(), 1, "herd joiners have one contact");
                    contacts[0]
                }
                other => panic!("expected joins, got {other:?}"),
            })
            .collect();
        introducers.dedup();
        assert_eq!(
            introducers.len(),
            1,
            "all herd joiners share the introducer"
        );
        assert!(
            introducers[0].as_u64() < 50,
            "introducer is an initial node"
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for schedule in [
            "quiet:10,kill:0.5,churn:0.01x20",
            "churn:0.02/0.03x5[contacts=2],flash:40[herd],part:2x3@0.95,quiet:1",
            "adv:eclipse@0.05>victims:8,quiet:3,part:3x4@0.9/0.5",
            "(churn:0.01x5,kill:0.3)x2,flash:7[contacts=1]",
            "grow:99/10,quiet:5,(grow:3/2,kill:0.1)x2",
        ] {
            let parsed = Workload::parse(schedule, 11).unwrap();
            let shown = parsed.to_string();
            let reparsed = Workload::parse(&shown, 11)
                .unwrap_or_else(|e| panic!("display output `{shown}` must reparse: {e}"));
            assert_eq!(parsed, reparsed, "round-trip of `{schedule}` via `{shown}`");
        }
    }

    #[test]
    fn zero_phases_are_typed_errors() {
        for (schedule, kind) in [
            ("quiet:0", ScheduleErrorKind::ZeroLength),
            ("churn:0.01x0", ScheduleErrorKind::ZeroLength),
            ("part:2x0", ScheduleErrorKind::ZeroLength),
            ("flash:0", ScheduleErrorKind::ZeroLength),
            ("grow:0/5", ScheduleErrorKind::ZeroLength),
            ("grow:5/0", ScheduleErrorKind::ZeroLength),
            ("(quiet:5)x0", ScheduleErrorKind::ZeroLength),
            ("()x3", ScheduleErrorKind::ZeroLength),
            ("churn:0x5", ScheduleErrorKind::ZeroRate),
            ("churn:0/0x5", ScheduleErrorKind::ZeroRate),
            ("kill:0", ScheduleErrorKind::ZeroRate),
            ("part:2x5@0", ScheduleErrorKind::ZeroRate),
            ("kill:1.5", ScheduleErrorKind::OutOfRange),
            ("part:1x5", ScheduleErrorKind::OutOfRange),
            ("part:2x5@1.5", ScheduleErrorKind::OutOfRange),
            ("churn:-0.1x5", ScheduleErrorKind::OutOfRange),
            ("churn:0.01/NaNx5", ScheduleErrorKind::OutOfRange),
            ("bogus:1", ScheduleErrorKind::UnknownKind),
            ("adv:gremlin@0.1", ScheduleErrorKind::UnknownKind),
            ("adv:hub@0.9", ScheduleErrorKind::Adversary),
            ("quiet:5[contacts=3]", ScheduleErrorKind::Override),
            ("flash:9[contacts=0]", ScheduleErrorKind::Override),
            ("flash:9[herd,contacts=2]", ScheduleErrorKind::Override),
            ("churn:0.01x5[turbo=1]", ScheduleErrorKind::Override),
            ("(quiet:5", ScheduleErrorKind::Repetition),
            ("quiet:5)x2", ScheduleErrorKind::Repetition),
            ("((quiet:5)x2)x2", ScheduleErrorKind::Repetition),
            ("(adv:hub@0.1)x2", ScheduleErrorKind::Repetition),
            ("(quiet:5)y2", ScheduleErrorKind::Repetition),
            ("quiet", ScheduleErrorKind::Syntax),
            ("quiet:x", ScheduleErrorKind::Syntax),
            ("churn:ax5", ScheduleErrorKind::Syntax),
            ("grow:5", ScheduleErrorKind::Syntax),
            ("grow:5/x", ScheduleErrorKind::Syntax),
            ("grow:5/2[herd]", ScheduleErrorKind::Override),
        ] {
            let err = Workload::parse(schedule, 0).unwrap_err();
            assert_eq!(err.kind, kind, "`{schedule}` → {err}");
        }
    }

    #[test]
    fn parse_compiles_adversary_roles() {
        let parsed = Workload::parse("adv:hub@0.02,quiet:5", 7).unwrap();
        assert_eq!(
            parsed.adversary.as_ref(),
            Some(&AdversarySpec::new(AdversaryKind::Hub, 0.02).unwrap())
        );
        let compiled = parsed.compile(200);
        let roles = compiled.adversary.expect("adv compiles to roles");
        assert_eq!(roles.kind(), AdversaryKind::Hub);
        assert_eq!(roles.attacker_count(), 4);

        let eclipse = Workload::parse("adv:eclipse@0.05>victims:8,quiet:3", 7).unwrap();
        let roles = eclipse.compile(100).adversary.unwrap();
        assert_eq!(roles.kind(), AdversaryKind::Eclipse);
        assert_eq!(roles.victim_count(), 8);

        // Identical schedules place identical roles regardless of phases.
        let a = Workload::parse("adv:liar@0.1,quiet:1", 1)
            .unwrap()
            .compile(64);
        let b = Workload::parse("adv:liar@0.1,churn:0.01x4", 1)
            .unwrap()
            .compile(64);
        assert_eq!(a.adversary, b.adversary);

        // Clean schedules compile no roles.
        assert_eq!(
            Workload::parse("quiet:2", 0).unwrap().compile(10).adversary,
            None
        );

        // One placement per schedule.
        assert!(Workload::parse("adv:hub@0.1,adv:liar@0.1", 0).is_err());
    }

    #[test]
    fn parse_rejects_malformed_items() {
        for bad in [
            "quiet",
            "quiet:x",
            "churn:0.1",
            "churn:ax5",
            "kill:1.5",
            "kill:x",
            "flash:x",
            "part:1x5",
            "part:2",
            "bogus:1",
            "adv:hub",
            "adv:gremlin@0.1",
            "adv:hub@0.9",
            "adv:hub@x",
            "adv:hub@0.1>victims:4",
            "adv:eclipse@0.1",
            "adv:eclipse@0.1>victims:x",
            "adv:eclipse@0.1>foes:4",
        ] {
            let err = Workload::parse(bad, 0).unwrap_err();
            assert_eq!(err.item, bad.split_once(',').map_or(bad, |(a, _)| a));
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn compile_is_deterministic_and_seed_sensitive() {
        let w = acceptance();
        let a = w.compile(200);
        let b = w.compile(200);
        assert_eq!(a, b);
        assert_ne!(a, compile("quiet:10,kill:0.5,churn:0.01x20", 8, 200));
    }

    #[test]
    fn compiled_catastrophe_lands_on_the_next_period() {
        let compiled = acceptance().compile(100);
        assert_eq!(compiled.periods(), 30);
        assert_eq!(compiled.initial_nodes, 100);
        // Periods 1..=10 are quiet; period 11 opens with the 50% kill.
        for step in &compiled.steps[..10] {
            assert!(step.ops.is_empty());
        }
        let kills = compiled.steps[10]
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Kill(_)))
            .count();
        assert_eq!(kills, 50);
        // Kills are distinct ids.
        let mut victims: Vec<NodeId> = compiled.steps[10]
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Kill(id) => Some(*id),
                _ => None,
            })
            .collect();
        victims.sort();
        victims.dedup();
        assert_eq!(victims.len(), 50);
    }

    #[test]
    fn churn_counts_follow_the_carry_accumulator() {
        // 1% of 100 live = 1 kill + 1 join every period, exactly.
        let compiled = compile("churn:0.01x10", 3, 100);
        for step in &compiled.steps {
            let kills = step.ops.iter().filter(|o| matches!(o, Op::Kill(_))).count();
            let joins = step
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Join { .. }))
                .count();
            assert_eq!((kills, joins), (1, 1), "{step:?}");
        }
        assert_eq!(compiled.id_space - compiled.initial_nodes, 10);
        assert_eq!(compiled.id_space, 110);
    }

    #[test]
    fn accumulator_rounding_matches_expectation_exactly() {
        let mut acc = RateAccumulator::new();
        let total: usize = (0..2000).map(|_| acc.step(0.25)).sum();
        // 2000 × 0.25 = 500 exactly; the carry bound allows at most ±1.
        assert_eq!(total, 500);
        assert!(acc.carry() < 1.0);
    }

    #[test]
    fn joins_get_sequential_ids_and_live_contacts() {
        let compiled = compile("flash:20", 5, 50);
        // Trailing instantaneous phase gets its own observation period.
        assert_eq!(compiled.periods(), 1);
        for (expected, op) in (50u64..).zip(compiled.steps[0].ops.iter()) {
            let Op::Join { id, contacts } = op else {
                panic!("expected joins, got {op:?}");
            };
            assert_eq!(id.as_u64(), expected);
            assert!(!contacts.is_empty() && contacts.len() <= 3);
            for c in contacts {
                assert!(c.as_u64() < 50 || c.as_u64() < id.as_u64());
            }
        }
        assert_eq!(compiled.id_space, 70);
    }

    #[test]
    fn partition_heals_on_the_following_period() {
        let compiled = compile("quiet:2,part:2x3,quiet:2", 1, 10);
        assert_eq!(compiled.periods(), 7);
        assert_eq!(
            compiled.steps[2].ops,
            vec![Op::SetPartition(Some(Partition::new(2)))]
        );
        assert_eq!(compiled.steps[5].ops, vec![Op::SetPartition(None)]);
        // Trailing partition gets a synthetic heal step.
        let tail = compile("part:2x2", 1, 10);
        assert_eq!(tail.periods(), 3);
        assert_eq!(tail.steps[2].ops, vec![Op::SetPartition(None)]);
    }

    #[test]
    fn zero_rate_churn_never_mutates_membership() {
        // A zero direction never fires: joins only, or kills only...
        let joins_only = compile("churn:0/0.05x25", 9, 64);
        assert!(joins_only
            .steps
            .iter()
            .flat_map(|s| &s.ops)
            .all(|op| matches!(op, Op::Join { .. })));
        assert!(joins_only.id_space > joins_only.initial_nodes);
        let kills_only = compile("churn:0.05/0x25", 9, 64);
        assert!(kills_only
            .steps
            .iter()
            .flat_map(|s| &s.ops)
            .all(|op| matches!(op, Op::Kill(_))));
        assert_eq!(kills_only.id_space, 64);
        // ...and with both zero there is no phase to compile at all.
        let err = Workload::parse("churn:0x25", 9).unwrap_err();
        assert_eq!(err.kind, ScheduleErrorKind::ZeroRate);
    }

    #[test]
    fn runs_on_the_cycle_engine_end_to_end() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 10).unwrap();
        let mut sim = scenario::random_overlay(&config, 120, 11);
        sim.run_cycles(15);
        let compiled = compile("quiet:2,kill:0.5,churn:0.02x8", 2, 120);
        let records = run_workload(&mut sim, &compiled, 10);
        // 2 quiet + 8 churn periods; the catastrophe merges into period 3.
        assert_eq!(records.len(), 10);
        // Period 3 opens with the 50% kill plus that period's churn share.
        assert!(records[2].killed >= 60, "{:?}", records[2]);
        let last = records.last().unwrap();
        assert!(last.live > 40 && last.live < 80, "{last:?}");
        // Healing: dead-link fraction decays well below the catastrophe's.
        assert!(records[2].dead_link_fraction() > 0.2, "{:?}", records[2]);
        assert!(last.dead_link_fraction() < 0.1, "{last:?}");
        assert!(last.component_fraction() > 0.95, "{last:?}");
    }

    #[test]
    fn measure_rows_reports_the_basics() {
        let rows = vec![
            (NodeId::new(0), vec![NodeId::new(1), NodeId::new(3)]),
            (NodeId::new(1), vec![NodeId::new(0)]),
        ];
        // Node 3 is dead: one dead link, excluded from the graph.
        let r = measure_rows(4, &rows, |id| id.as_u64() < 2, 2);
        assert_eq!(r.live, 2);
        assert_eq!(r.dead_links, 1);
        assert_eq!(r.total_links, 3);
        assert_eq!(r.full_views, 1);
        assert_eq!(r.largest_component, 2);
        assert!((r.in_degree_mean - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn measure_rows_rejects_unsorted_rows() {
        let rows = vec![(NodeId::new(2), vec![]), (NodeId::new(0), vec![])];
        let _ = measure_rows(3, &rows, |_| true, 1);
    }

    /// The joins of each compiled step, as `(id, contacts)`.
    fn joins(compiled: &CompiledWorkload) -> Vec<Vec<(u64, Vec<u64>)>> {
        let join = |op: &Op| match op {
            Op::Join { id, contacts } => {
                Some((id.as_u64(), contacts.iter().map(|c| c.as_u64()).collect()))
            }
            _ => None,
        };
        let steps = compiled.steps.iter();
        steps
            .map(|s| s.ops.iter().filter_map(join).collect())
            .collect()
    }

    #[test]
    fn grow_adds_up_to_j_per_period_and_the_remainder_last() {
        let compiled = compile("grow:24/10,quiet:1", 5, 1);
        let counts: Vec<usize> = joins(&compiled).iter().map(Vec::len).collect();
        assert_eq!(counts, [10, 10, 4, 0]);
        assert_eq!(compiled.id_space, 25);
        // Every joiner knows only node 0, the one initial node, and ids
        // are sequential.
        let all: Vec<(u64, Vec<u64>)> = joins(&compiled).concat();
        assert!(all.iter().all(|(_, contacts)| contacts == &[0]));
        let ids: Vec<u64> = all.iter().map(|j| j.0).collect();
        assert_eq!(ids, (1..25).collect::<Vec<_>>());
        // An exact multiple has no remainder period.
        let counts: Vec<usize> = joins(&compile("grow:20/10", 5, 1))
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(counts, [10, 10]);
    }

    #[test]
    fn grow_contacts_the_smallest_live_id() {
        // From nobody, the first batch knows nobody; later batches know
        // the first joiner.
        let from_empty = joins(&compile("grow:5/3", 1, 0));
        assert_eq!(from_empty[0], [(0, vec![]), (1, vec![]), (2, vec![])]);
        assert_eq!(from_empty[1], [(3, vec![0]), (4, vec![0])]);
        // After a kill, the contact is the smallest id that survived it,
        // at every seed (some of which kill node 0).
        let mut killed_zero = 0;
        for seed in 0..20 {
            let compiled = compile("kill:0.5,grow:4/2", seed, 10);
            let killed: Vec<u64> = compiled.steps[0]
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Kill(id) => Some(id.as_u64()),
                    _ => None,
                })
                .collect();
            killed_zero += usize::from(killed.contains(&0));
            let oldest = (0..10).find(|id| !killed.contains(id)).unwrap();
            for step in joins(&compiled) {
                assert!(step.iter().all(|(_, contacts)| contacts == &[oldest]));
            }
            // The kill shares the first growth period; nothing trails.
            assert_eq!(compiled.periods(), 2);
        }
        assert!(killed_zero > 0);
    }

    /// A digest of five schedules' compiled form, recorded before the
    /// compiler had a `grow:` phase: a new phase must leave the others
    /// compiling byte for byte as they did.
    #[test]
    fn existing_schedules_compile_as_before() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for schedule in [
            "quiet:10,kill:0.5,churn:0.01x20",
            "churn:0.02/0.03x5[contacts=2],flash:40[herd],part:2x3@0.95,quiet:1",
            "adv:eclipse@0.05>victims:8,quiet:3,part:3x4@0.9/0.5",
            "(churn:0.01x5,kill:0.3)x2,flash:7[contacts=1]",
            "quiet:4,kill:0.3,churn:0.02x4,flash:10,part:2x3,quiet:2",
        ] {
            let text = format!("{:?}", compile(schedule, 11, 200));
            for byte in text.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(hash, 16_379_161_474_006_141_100);
    }

    #[test]
    #[should_panic(expected = "workload compiled id")]
    fn join_id_mismatch_is_detected() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 5).unwrap();
        let mut sim = ShardedSimulation::new(config, 3, 1);
        sim.add_node([]);
        WorkloadTarget::join(&mut sim, NodeId::new(5), &[NodeId::new(0)]);
    }
}
