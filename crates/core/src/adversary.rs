//! **Extension:** Byzantine peer implementations for adversarial evaluation.
//!
//! The Middleware 2004 paper evaluates peer sampling under *benign* failure
//! only; follow-up work (PeerSwap and friends) exists because gossip
//! samplers have weak randomness guarantees against *malicious*
//! participants. This module implements the classic attacks as ordinary
//! [`GossipNode`]s, so every unmodified driver — cycle simulator, event
//! engine, socket runtime, live cluster — can host a poisoned population:
//!
//! * [`HubAttacker`] — descriptor flooding / self-promotion: every message
//!   it emits is a forged buffer of age-0 attacker descriptors, gaming
//!   freshness-greedy (`head`) view selection into concentrating in-degree
//!   on the attacker set.
//! * [`AgeLiar`] — behaves like an honest node but advertises every
//!   descriptor it ships at age 0, so its (possibly stale) content always
//!   wins freshness comparisons and never decays out of views.
//! * [`ReplyForger`] — participates honestly when initiating, but answers
//!   every pull with a fabricated view pointing at a colluder set.
//! * [`EclipseAttacker`] — pounds a configured victim set with forged
//!   attacker-only buffers until the victims' views are fully
//!   attacker-controlled, while answering everyone else with innocuous
//!   honest decoys so the attack stays targeted and hard to spot.
//!
//! Placement is a pure function of node id via [`AdversaryRoles`], so the
//! identical attack trajectory drives every stack bit-for-bit: the same ids
//! are attackers under any worker count, engine, or transport.
//!
//! None of the paper-reproduction experiments route through this module;
//! it is the fault-injection layer for the robustness suite.

use core::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::policy::ViewSelection;
use crate::staging::Arena;
use crate::{
    Exchange, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig, Reply, Request,
    View,
};

/// The attack implemented by a malicious node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryKind {
    /// Descriptor flooding / self-promotion with age-0 forged entries.
    Hub,
    /// Honest behavior, but every shipped descriptor claims age 0.
    AgeLiar,
    /// Honest initiator that answers pulls with fabricated colluder views.
    ReplyForger,
    /// Saturates a configured victim set with attacker-only buffers.
    Eclipse,
}

impl AdversaryKind {
    /// The workload-grammar token for this kind (`adv:<token>@fraction`).
    pub fn token(self) -> &'static str {
        match self {
            AdversaryKind::Hub => "hub",
            AdversaryKind::AgeLiar => "liar",
            AdversaryKind::ReplyForger => "forge",
            AdversaryKind::Eclipse => "eclipse",
        }
    }
}

impl fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Error parsing an [`AdversaryKind`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAdversaryError(String);

impl fmt::Display for ParseAdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown adversary kind {:?} (expected hub, liar, forge, or eclipse)",
            self.0
        )
    }
}

impl std::error::Error for ParseAdversaryError {}

impl FromStr for AdversaryKind {
    type Err = ParseAdversaryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hub" => Ok(AdversaryKind::Hub),
            "liar" => Ok(AdversaryKind::AgeLiar),
            "forge" => Ok(AdversaryKind::ReplyForger),
            "eclipse" => Ok(AdversaryKind::Eclipse),
            other => Err(ParseAdversaryError(other.to_string())),
        }
    }
}

/// An invalid adversary specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryError {
    /// The attacker fraction must be in `(0, 0.5]`.
    BadFraction,
    /// Eclipse attacks need a non-empty victim set; other kinds take none.
    BadVictims,
}

impl fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryError::BadFraction => write!(f, "attacker fraction must be in (0, 0.5]"),
            AdversaryError::BadVictims => write!(
                f,
                "victim count must be positive for eclipse and absent otherwise"
            ),
        }
    }
}

impl std::error::Error for AdversaryError {}

/// A declarative attack specification: which attack, how much of the
/// population is malicious, and (for eclipse) how many victims.
///
/// Compiled against a concrete population size into [`AdversaryRoles`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    kind: AdversaryKind,
    fraction: f64,
    victims: u64,
}

impl AdversarySpec {
    /// A non-eclipse attack placing `fraction` of the initial population
    /// under attacker control.
    pub fn new(kind: AdversaryKind, fraction: f64) -> Result<Self, AdversaryError> {
        if !(fraction > 0.0 && fraction <= 0.5) {
            return Err(AdversaryError::BadFraction);
        }
        if kind == AdversaryKind::Eclipse {
            return Err(AdversaryError::BadVictims);
        }
        Ok(AdversarySpec {
            kind,
            fraction,
            victims: 0,
        })
    }

    /// An eclipse attack against the first `victims` honest ids.
    pub fn eclipse(fraction: f64, victims: u64) -> Result<Self, AdversaryError> {
        if !(fraction > 0.0 && fraction <= 0.5) {
            return Err(AdversaryError::BadFraction);
        }
        if victims == 0 {
            return Err(AdversaryError::BadVictims);
        }
        Ok(AdversarySpec {
            kind: AdversaryKind::Eclipse,
            fraction,
            victims,
        })
    }

    /// The attack kind.
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// The malicious fraction of the initial population.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The requested victim count (0 unless eclipse).
    pub fn victims(&self) -> u64 {
        self.victims
    }
}

/// The compiled per-id role assignment for one attacked population.
///
/// Roles are a pure function of `(spec, population, id)`: attackers are
/// `round(fraction × population)` ids spread evenly across `0..population`
/// (the same even-spread rule as workload partitions), and eclipse victims
/// are the first `victims` honest ids. No RNG is involved, so every engine,
/// worker count, and transport sees the identical cast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryRoles {
    spec: AdversarySpec,
    population: u64,
    attackers: u64,
    victims: u64,
}

impl AdversaryRoles {
    /// Compiles a spec against a concrete initial population size.
    pub fn new(spec: AdversarySpec, population: u64) -> Self {
        let ideal = (spec.fraction * population as f64).round() as u64;
        let mut attackers = if population == 0 {
            0
        } else {
            ideal.clamp(1, population)
        };
        let victims = spec.victims.min(population.saturating_sub(attackers));
        // Eclipse needs its victims to exist: cede attacker slots if the
        // population is too small for both.
        if spec.kind == AdversaryKind::Eclipse && population > 0 {
            attackers = attackers.min(population.saturating_sub(victims)).max(1);
        }
        AdversaryRoles {
            spec,
            population,
            attackers,
            victims,
        }
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &AdversarySpec {
        &self.spec
    }

    /// The attack kind.
    pub fn kind(&self) -> AdversaryKind {
        self.spec.kind
    }

    /// The initial population size the roles were compiled against.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Number of attacker ids.
    pub fn attacker_count(&self) -> u64 {
        self.attackers
    }

    /// Number of eclipse victims (0 unless eclipse).
    pub fn victim_count(&self) -> u64 {
        self.victims
    }

    /// Whether `id` is an attacker. Ids at or beyond the initial population
    /// (late joiners) are always honest.
    pub fn is_attacker(&self, id: NodeId) -> bool {
        let id = id.as_u64();
        if id >= self.population {
            return false;
        }
        let (k, n) = (self.attackers as u128, self.population as u128);
        (id as u128 * k) / n != ((id as u128 + 1) * k) / n
    }

    /// Number of attacker ids strictly below `id` (the even-spread rule
    /// makes this closed-form).
    fn attackers_below(&self, id: u64) -> u64 {
        let (k, n) = (self.attackers as u128, self.population as u128);
        ((id.min(self.population) as u128 * k) / n) as u64
    }

    /// Whether `id` is an eclipse victim: one of the first
    /// [`victim_count`](Self::victim_count) honest ids.
    pub fn is_victim(&self, id: NodeId) -> bool {
        let raw = id.as_u64();
        raw < self.population
            && !self.is_attacker(id)
            && raw - self.attackers_below(raw) < self.victims
    }

    /// All attacker ids, ascending.
    pub fn attacker_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.population)
            .map(NodeId::new)
            .filter(move |&id| self.is_attacker(id))
    }

    /// All victim ids, ascending (empty unless eclipse).
    pub fn victim_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.population)
            .map(NodeId::new)
            .filter(move |&id| self.is_victim(id))
    }

    /// The colluder list advertised by attacker `id`: the other attackers,
    /// capped at `cap`, with `id` itself excluded.
    fn colluders_for(&self, id: NodeId, cap: usize) -> Vec<NodeId> {
        self.attacker_ids().filter(|&a| a != id).take(cap).collect()
    }

    /// Builds the boxed attacker node for an attacker id. The caller must
    /// have checked [`is_attacker`](Self::is_attacker); honest ids get
    /// whatever node the hosting driver normally builds.
    ///
    /// `config` is the honest protocol configuration — attackers reuse its
    /// view size so graph metrics compare like with like, and the mimicking
    /// attacks ([`AgeLiar`], [`ReplyForger`]) run a real
    /// [`PeerSamplingNode`] underneath.
    pub fn build_attacker(
        &self,
        id: NodeId,
        config: &ProtocolConfig,
        seed: u64,
    ) -> Box<dyn GossipNode + Send> {
        debug_assert!(self.is_attacker(id), "build_attacker on an honest id");
        let c = config.view_size();
        match self.spec.kind {
            AdversaryKind::Hub => {
                Box::new(HubAttacker::new(id, self.colluders_for(id, c), c, seed))
            }
            AdversaryKind::AgeLiar => Box::new(AgeLiar::new(id, config.clone(), seed)),
            AdversaryKind::ReplyForger => Box::new(ReplyForger::new(
                id,
                config.clone(),
                self.colluders_for(id, c),
                seed,
            )),
            AdversaryKind::Eclipse => Box::new(EclipseAttacker::new(
                id,
                self.colluders_for(id, c),
                self.victim_ids().collect(),
                c,
                seed,
            )),
        }
    }
}

/// Builds a forged wire buffer: `own` (if any) followed by colluders, all
/// at age 0, capped at `cap` entries. Uses the driver's recycled message
/// pool like honest senders do.
fn forged_buffer(
    arena: &mut Arena,
    own: Option<NodeId>,
    colluders: &[NodeId],
    cap: usize,
) -> Vec<NodeDescriptor> {
    let mut buffer = arena.take_buffer();
    if let Some(id) = own {
        buffer.push(NodeDescriptor::fresh(id));
    }
    buffer.extend(
        colluders
            .iter()
            .take(cap.saturating_sub(buffer.len()))
            .map(|&id| NodeDescriptor::fresh(id)),
    );
    buffer
}

/// Target memory shared by the active attackers: a bounded [`View`] of
/// honest descriptors learned from traffic, used to pick exchange targets.
#[derive(Debug, Clone)]
struct TargetBook {
    view: View,
    cap: usize,
}

impl TargetBook {
    fn new(cap: usize) -> Self {
        TargetBook {
            view: View::new(),
            cap,
        }
    }

    /// Absorbs descriptors, dropping self/colluder entries, and trims back
    /// to the cap with uniform-random eviction (no freshness bias — targets
    /// are targets).
    fn learn(
        &mut self,
        own: NodeId,
        colluders: &[NodeId],
        descriptors: &[NodeDescriptor],
        rng: &mut SmallRng,
    ) {
        for d in descriptors {
            if d.id() != own && !colluders.contains(&d.id()) {
                self.view.insert(*d);
            }
        }
        self.view.select(ViewSelection::Rand, self.cap, rng);
    }
}

/// Descriptor-flooding hub attacker.
///
/// Every outgoing request and reply is a forged buffer of age-0 attacker
/// descriptors (itself first). Under freshness-greedy view selection the
/// forged entries outcompete honest content, concentrating in-degree on the
/// attacker set. Incoming traffic is only mined for fresh honest targets.
#[derive(Debug, Clone)]
pub struct HubAttacker {
    id: NodeId,
    colluders: Vec<NodeId>,
    targets: TargetBook,
    view_size: usize,
    rng: SmallRng,
}

impl HubAttacker {
    /// Creates a hub attacker advertising itself plus `colluders`.
    pub fn new(id: NodeId, colluders: Vec<NodeId>, view_size: usize, seed: u64) -> Self {
        HubAttacker {
            id,
            colluders,
            targets: TargetBook::new(view_size),
            view_size,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl GossipNode for HubAttacker {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> &View {
        &self.targets.view
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        let seeds: Vec<NodeDescriptor> = seeds.collect();
        self.targets
            .learn(self.id, &self.colluders, &seeds, &mut self.rng);
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        let peer =
            self.targets
                .view
                .sample_filtered(&mut self.rng, &mut arena.scratch, eligible)?;
        Some(Exchange {
            peer,
            request: Request {
                descriptors: forged_buffer(arena, Some(self.id), &self.colluders, self.view_size),
                // Pull back the victim's view: free target reconnaissance.
                wants_reply: true,
            },
        })
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        let wants_reply = request.wants_reply;
        self.targets.learn(
            self.id,
            &self.colluders,
            &request.descriptors,
            &mut self.rng,
        );
        if from != self.id && !self.colluders.contains(&from) {
            self.targets.view.insert(NodeDescriptor::fresh(from));
        }
        arena.put_buffer(request.descriptors);
        wants_reply.then(|| Reply {
            descriptors: forged_buffer(arena, Some(self.id), &self.colluders, self.view_size),
        })
    }

    fn handle_reply(&mut self, arena: &mut Arena, _from: NodeId, reply: Reply) {
        self.targets
            .learn(self.id, &self.colluders, &reply.descriptors, &mut self.rng);
        arena.put_buffer(reply.descriptors);
    }
}

/// Age-lying attacker: an honest node whose every shipped descriptor claims
/// age 0, so its content always wins freshness comparisons and its own
/// entry never decays out of other views.
#[derive(Debug, Clone)]
pub struct AgeLiar {
    inner: PeerSamplingNode,
}

impl AgeLiar {
    /// Creates an age liar running an honest node underneath.
    pub fn new(id: NodeId, config: ProtocolConfig, seed: u64) -> Self {
        AgeLiar {
            inner: PeerSamplingNode::with_seed(id, config, seed),
        }
    }
}

/// Rewrites every descriptor in `buffer` to age 0, preserving order.
fn zero_ages(buffer: &mut [NodeDescriptor]) {
    for d in buffer.iter_mut() {
        *d = NodeDescriptor::fresh(d.id());
    }
}

impl GossipNode for AgeLiar {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn view(&self) -> &View {
        GossipNode::view(&self.inner)
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        GossipNode::init(&mut self.inner, seeds)
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        let mut exchange = self.inner.initiate_filtered(arena, eligible)?;
        zero_ages(&mut exchange.request.descriptors);
        Some(exchange)
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        let mut reply = self.inner.handle_request(arena, from, request)?;
        zero_ages(&mut reply.descriptors);
        Some(reply)
    }

    fn handle_reply(&mut self, arena: &mut Arena, from: NodeId, reply: Reply) {
        self.inner.handle_reply(arena, from, reply)
    }
}

/// Reply-forging attacker: initiates honestly (staying well-embedded in the
/// overlay) but answers every pull with a fabricated view pointing at the
/// colluder set.
#[derive(Debug, Clone)]
pub struct ReplyForger {
    inner: PeerSamplingNode,
    colluders: Vec<NodeId>,
    view_size: usize,
}

impl ReplyForger {
    /// Creates a reply forger advertising `colluders` in forged replies.
    pub fn new(id: NodeId, config: ProtocolConfig, colluders: Vec<NodeId>, seed: u64) -> Self {
        let view_size = config.view_size();
        ReplyForger {
            inner: PeerSamplingNode::with_seed(id, config, seed),
            colluders,
            view_size,
        }
    }
}

impl GossipNode for ReplyForger {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn view(&self) -> &View {
        GossipNode::view(&self.inner)
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        GossipNode::init(&mut self.inner, seeds)
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        self.inner.initiate_filtered(arena, eligible)
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        // Absorb honestly (the inner node stays embedded), then swap the
        // real reply for the forgery.
        let real = self.inner.handle_request(arena, from, request)?;
        arena.put_buffer(real.descriptors);
        Some(Reply {
            descriptors: forged_buffer(arena, Some(self.id()), &self.colluders, self.view_size),
        })
    }

    fn handle_reply(&mut self, arena: &mut Arena, from: NodeId, reply: Reply) {
        self.inner.handle_reply(arena, from, reply)
    }
}

/// Targeted eclipse attacker: pounds a configured victim set round-robin
/// with forged attacker-only buffers, trying to drive each victim's view to
/// 100 % attacker entries — while staying stealthy toward everyone else.
///
/// Stealth matters: replying forged to arbitrary honest nodes would turn
/// the eclipse into a global hub takeover (and make it trivially
/// detectable). Instead the attacker keeps a *decoy book* of honest
/// non-victim descriptors learned from incoming traffic, ages intact, and
/// answers non-victim pulls with those — plausible gossip that never
/// advertises a colluder. Victims are also filtered out of the decoy book,
/// so the colluder set never re-injects a victim into the honest overlay:
/// victims fade from honest views while their own views saturate.
#[derive(Debug, Clone)]
pub struct EclipseAttacker {
    id: NodeId,
    colluders: Vec<NodeId>,
    victims: Vec<NodeId>,
    /// Round-robin cursor over `victims`, offset per attacker so colluders
    /// spread their fire.
    cursor: usize,
    view: View,
    /// Honest non-victim descriptors served to non-victim requesters.
    decoys: View,
    view_size: usize,
    rng: SmallRng,
}

impl EclipseAttacker {
    /// Creates an eclipse attacker targeting `victims`; `seed` drives decoy
    /// eviction.
    pub fn new(
        id: NodeId,
        colluders: Vec<NodeId>,
        victims: Vec<NodeId>,
        view_size: usize,
        seed: u64,
    ) -> Self {
        let cursor = if victims.is_empty() {
            0
        } else {
            (id.as_u64() % victims.len() as u64) as usize
        };
        let view = View::from_descriptors(victims.iter().map(|&v| NodeDescriptor::fresh(v)));
        EclipseAttacker {
            id,
            colluders,
            victims,
            cursor,
            view,
            decoys: View::new(),
            view_size,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Absorbs honest non-victim descriptors into the decoy book, evicting
    /// uniformly at random beyond the cap.
    fn learn_decoys(&mut self, descriptors: &[NodeDescriptor]) {
        for d in descriptors {
            let id = d.id();
            if id != self.id && !self.colluders.contains(&id) && !self.victims.contains(&id) {
                self.decoys.insert(*d);
            }
        }
        self.decoys
            .select(ViewSelection::Rand, self.view_size, &mut self.rng);
    }

    /// A plausible reply for a non-victim: learned honest descriptors, ages
    /// intact, no colluders, no self-promotion.
    fn decoy_buffer(&self, arena: &mut Arena) -> Vec<NodeDescriptor> {
        let mut buffer = arena.take_buffer();
        buffer.extend(self.decoys.descriptors().iter().take(self.view_size));
        buffer
    }
}

impl GossipNode for EclipseAttacker {
    fn id(&self) -> NodeId {
        self.id
    }

    fn view(&self) -> &View {
        &self.view
    }

    fn init(&mut self, seeds: &mut dyn Iterator<Item = NodeDescriptor>) {
        // Targets are preconfigured; bootstrap seeds only feed the decoys.
        let seeds: Vec<NodeDescriptor> = seeds.collect();
        self.learn_decoys(&seeds);
    }

    fn initiate_filtered(
        &mut self,
        arena: &mut Arena,
        eligible: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<Exchange> {
        let len = self.victims.len();
        for step in 0..len {
            let victim = self.victims[(self.cursor + step) % len];
            if eligible(victim) {
                self.cursor = (self.cursor + step + 1) % len;
                return Some(Exchange {
                    peer: victim,
                    request: Request {
                        descriptors: forged_buffer(
                            arena,
                            Some(self.id),
                            &self.colluders,
                            self.view_size,
                        ),
                        // Pure push: saturate, don't converse.
                        wants_reply: false,
                    },
                });
            }
        }
        None
    }

    fn handle_request(
        &mut self,
        arena: &mut Arena,
        from: NodeId,
        request: Request,
    ) -> Option<Reply> {
        let wants_reply = request.wants_reply;
        self.learn_decoys(&request.descriptors);
        arena.put_buffer(request.descriptors);
        wants_reply.then(|| Reply {
            descriptors: if self.victims.contains(&from) {
                forged_buffer(arena, Some(self.id), &self.colluders, self.view_size)
            } else {
                self.decoy_buffer(arena)
            },
        })
    }

    fn handle_reply(&mut self, arena: &mut Arena, _from: NodeId, reply: Reply) {
        self.learn_decoys(&reply.descriptors);
        arena.put_buffer(reply.descriptors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyTriple;

    fn spec(kind: AdversaryKind, fraction: f64) -> AdversarySpec {
        AdversarySpec::new(kind, fraction).unwrap()
    }

    #[test]
    fn spec_validation() {
        assert_eq!(
            AdversarySpec::new(AdversaryKind::Hub, 0.0),
            Err(AdversaryError::BadFraction)
        );
        assert_eq!(
            AdversarySpec::new(AdversaryKind::Hub, 0.6),
            Err(AdversaryError::BadFraction)
        );
        assert_eq!(
            AdversarySpec::new(AdversaryKind::Eclipse, 0.1),
            Err(AdversaryError::BadVictims)
        );
        assert_eq!(
            AdversarySpec::eclipse(0.1, 0),
            Err(AdversaryError::BadVictims)
        );
        assert!(AdversarySpec::eclipse(0.1, 4).is_ok());
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [
            AdversaryKind::Hub,
            AdversaryKind::AgeLiar,
            AdversaryKind::ReplyForger,
            AdversaryKind::Eclipse,
        ] {
            assert_eq!(kind.token().parse::<AdversaryKind>().unwrap(), kind);
        }
        assert!("gremlin".parse::<AdversaryKind>().is_err());
    }

    #[test]
    fn roles_spread_attackers_evenly_and_purely() {
        let roles = AdversaryRoles::new(spec(AdversaryKind::Hub, 0.02), 200);
        assert_eq!(roles.attacker_count(), 4);
        let ids: Vec<u64> = roles.attacker_ids().map(|id| id.as_u64()).collect();
        assert_eq!(ids.len(), 4);
        // Evenly spread: one attacker per quarter of the id space.
        for (i, id) in ids.iter().enumerate() {
            assert!(*id >= i as u64 * 50 && *id < (i as u64 + 1) * 50, "{ids:?}");
        }
        // Pure per-id predicate agrees with the enumeration.
        for id in 0..200 {
            assert_eq!(
                roles.is_attacker(NodeId::new(id)),
                ids.contains(&id),
                "id {id}"
            );
        }
        // Late joiners are honest.
        assert!(!roles.is_attacker(NodeId::new(200)));
        assert!(!roles.is_attacker(NodeId::new(10_000)));
    }

    #[test]
    fn victims_are_first_honest_ids() {
        let roles = AdversaryRoles::new(AdversarySpec::eclipse(0.1, 8).unwrap(), 100);
        assert_eq!(roles.attacker_count(), 10);
        assert_eq!(roles.victim_count(), 8);
        let victims: Vec<u64> = roles.victim_ids().map(|id| id.as_u64()).collect();
        assert_eq!(victims.len(), 8);
        for &v in &victims {
            assert!(!roles.is_attacker(NodeId::new(v)));
            assert!(roles.is_victim(NodeId::new(v)));
        }
        // They are the smallest honest ids: everything below the largest
        // victim is either a victim or an attacker.
        let max = *victims.last().unwrap();
        for id in 0..max {
            let id = NodeId::new(id);
            assert!(roles.is_attacker(id) || roles.is_victim(id));
        }
        assert!(!roles.is_victim(NodeId::new(99)));
    }

    #[test]
    fn tiny_populations_keep_roles_consistent() {
        let roles = AdversaryRoles::new(AdversarySpec::eclipse(0.5, 8).unwrap(), 4);
        assert!(roles.attacker_count() >= 1);
        assert!(roles.attacker_count() + roles.victim_count() <= 4);
        let roles = AdversaryRoles::new(spec(AdversaryKind::Hub, 0.01), 3);
        assert_eq!(roles.attacker_count(), 1);
    }

    fn newscast(c: usize) -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap()
    }

    #[test]
    fn hub_attacker_floods_forged_fresh_entries() {
        let colluders = vec![NodeId::new(50), NodeId::new(100)];
        let mut hub = HubAttacker::new(NodeId::new(0), colluders.clone(), 8, 7);
        GossipNode::init(
            &mut hub,
            &mut [NodeDescriptor::new(NodeId::new(3), 4)].into_iter(),
        );
        let mut arena = Arena::new();
        let exchange = hub.initiate(&mut arena).expect("has a target");
        assert_eq!(exchange.peer, NodeId::new(3));
        assert!(exchange.request.wants_reply);
        let ids: Vec<NodeId> = exchange
            .request
            .descriptors
            .iter()
            .map(|d| d.id())
            .collect();
        assert_eq!(ids, vec![NodeId::new(0), NodeId::new(50), NodeId::new(100)]);
        assert!(exchange
            .request
            .descriptors
            .iter()
            .all(|d| d.hop_count() == 0));

        // A pull against the hub returns the same forgery and teaches it
        // the requester as a target.
        let reply = hub
            .handle_request(
                &mut arena,
                NodeId::new(9),
                Request {
                    descriptors: vec![NodeDescriptor::new(NodeId::new(9), 1)],
                    wants_reply: true,
                },
            )
            .expect("pull answered");
        assert!(reply.descriptors.iter().all(|d| d.hop_count() == 0));
        assert!(hub.view().contains(NodeId::new(9)));
        // Colluders never enter the target book.
        assert!(!hub.view().contains(NodeId::new(50)));
    }

    #[test]
    fn age_liar_zeroes_every_outgoing_age() {
        let mut liar = AgeLiar::new(NodeId::new(1), newscast(8), 3);
        GossipNode::init(
            &mut liar,
            &mut [
                NodeDescriptor::new(NodeId::new(2), 5),
                NodeDescriptor::new(NodeId::new(3), 9),
            ]
            .into_iter(),
        );
        let mut arena = Arena::new();
        let exchange = liar.initiate(&mut arena).expect("non-empty view");
        assert!(exchange
            .request
            .descriptors
            .iter()
            .all(|d| d.hop_count() == 0));
        let reply = liar
            .handle_request(
                &mut arena,
                NodeId::new(2),
                Request {
                    descriptors: vec![NodeDescriptor::fresh(NodeId::new(2))],
                    wants_reply: true,
                },
            )
            .expect("pushpull replies");
        assert!(reply.descriptors.iter().all(|d| d.hop_count() == 0));
    }

    #[test]
    fn reply_forger_initiates_honestly_but_forges_pulls() {
        let colluders = vec![NodeId::new(70), NodeId::new(80)];
        let mut forger = ReplyForger::new(NodeId::new(4), newscast(8), colluders.clone(), 11);
        GossipNode::init(
            &mut forger,
            &mut [NodeDescriptor::new(NodeId::new(5), 2)].into_iter(),
        );
        let mut arena = Arena::new();
        let reply = forger
            .handle_request(
                &mut arena,
                NodeId::new(5),
                Request {
                    descriptors: vec![NodeDescriptor::fresh(NodeId::new(5))],
                    wants_reply: true,
                },
            )
            .expect("pull answered");
        let ids: Vec<NodeId> = reply.descriptors.iter().map(|d| d.id()).collect();
        assert_eq!(ids, vec![NodeId::new(4), NodeId::new(70), NodeId::new(80)]);
        // The inner node still absorbed the request: it stays embedded.
        assert!(GossipNode::view(&forger).contains(NodeId::new(5)));
    }

    #[test]
    fn eclipse_attacker_round_robins_victims_and_skips_ineligible() {
        let victims = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let mut attacker = EclipseAttacker::new(
            NodeId::new(10),
            vec![NodeId::new(20)],
            victims.clone(),
            8,
            7,
        );
        let mut arena = Arena::new();
        let first = attacker.initiate(&mut arena).expect("victims configured");
        let second = attacker.initiate(&mut arena).expect("victims configured");
        assert_ne!(first.peer, second.peer);
        assert!(victims.contains(&first.peer) && victims.contains(&second.peer));
        assert!(!first.request.wants_reply);
        assert!(first.request.descriptors.iter().all(|d| d.hop_count() == 0));

        // Dead victims are skipped.
        let third = attacker
            .initiate_filtered(&mut arena, &mut |id| id != NodeId::new(3))
            .expect("two victims still alive");
        assert_ne!(third.peer, NodeId::new(3));
        // All victims dead: no exchange.
        assert!(attacker
            .initiate_filtered(&mut arena, &mut |_| false)
            .is_none());
    }

    #[test]
    fn eclipse_attacker_forges_to_victims_and_decoys_everyone_else() {
        let victims = vec![NodeId::new(1), NodeId::new(2)];
        let colluders = vec![NodeId::new(20), NodeId::new(21)];
        let mut attacker = EclipseAttacker::new(NodeId::new(10), colluders, victims, 8, 7);

        // Traffic teaches it honest descriptors; victims and colluders are
        // never recycled as decoys.
        let request = Request {
            descriptors: vec![
                NodeDescriptor::new(NodeId::new(5), 3),
                NodeDescriptor::new(NodeId::new(1), 0), // victim
                NodeDescriptor::new(NodeId::new(20), 0), // colluder
            ],
            wants_reply: true,
        };
        // A non-victim pull gets decoys only: learned honest ids, original
        // ages, no attacker or victim ids.
        let mut arena = Arena::new();
        let reply = attacker
            .handle_request(&mut arena, NodeId::new(5), request)
            .expect("pull answered");
        assert_eq!(reply.descriptors.len(), 1);
        assert_eq!(reply.descriptors[0].id(), NodeId::new(5));
        assert_eq!(reply.descriptors[0].hop_count(), 3);

        // A victim pull gets the forged colluder buffer at age 0.
        let victim_pull = Request {
            descriptors: Vec::new(),
            wants_reply: true,
        };
        let forged = attacker
            .handle_request(&mut arena, NodeId::new(1), victim_pull)
            .expect("pull answered");
        assert!(forged.descriptors.iter().all(|d| d.hop_count() == 0));
        assert!(forged.descriptors.iter().all(|d| d.id() == NodeId::new(10)
            || d.id() == NodeId::new(20)
            || d.id() == NodeId::new(21)));
    }
}
