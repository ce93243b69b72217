//! The three-dimensional protocol design space of the paper.

use core::fmt;
use std::str::FromStr;

/// Freshness dimension: what the descriptor age field measures.
///
/// The paper's generic skeleton tracks freshness as a **hop count**
/// incremented by every receiver, while its Newscast instantiation uses
/// **timestamps**: a descriptor is stamped when its owner creates it and
/// its age is simply the elapsed time on the (virtual, engine-driven)
/// clock — forwarding a descriptor does not make it look older.
///
/// The difference is invisible on a healthy overlay but decisive under
/// degraded failure physics: hop-count age inflates every in-group entry
/// during a network partition (entries keep circulating, gaining a hop per
/// transfer), so the eviction horizon rises with it while unreachable
/// cross-group entries age at the same clock rate — the marooned halves
/// collapse onto self-reinforcing cliques and the overlay splits for good.
/// Timestamp age keeps circulating entries young, the eviction horizon
/// stays low and *stale cross-group descriptors survive at the view tail*
/// long enough for a heal to re-merge the overlay. The workload
/// conformance suite pins both outcomes on the identical schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Freshness {
    /// Hop-count age: incremented once per cycle in the stored view *and*
    /// once on every transfer (the paper's generic `increaseHopCount`).
    #[default]
    HopCount,
    /// Timestamp age: advances once per cycle of the engine clock only;
    /// transfers carry the age through unchanged (Newscast semantics).
    Timestamp,
}

impl Freshness {
    /// Age added to every received descriptor before merging: 1 hop for
    /// [`Freshness::HopCount`], 0 for [`Freshness::Timestamp`] (the age is
    /// a clock reading, not a path length).
    pub const fn transfer_age(self) -> u32 {
        match self {
            Freshness::HopCount => 1,
            Freshness::Timestamp => 0,
        }
    }

    /// Both variants, hop count first.
    pub const fn both() -> [Freshness; 2] {
        [Freshness::HopCount, Freshness::Timestamp]
    }
}

impl fmt::Display for Freshness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Freshness::HopCount => "hop",
            Freshness::Timestamp => "timestamp",
        })
    }
}

impl FromStr for Freshness {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "hop" | "hops" | "hopcount" | "hop-count" => Ok(Freshness::HopCount),
            "timestamp" | "ts" | "time" => Ok(Freshness::Timestamp),
            other => Err(ParsePolicyError::new(other)),
        }
    }
}

/// Peer selection policy: which view entry to exchange views with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerSelection {
    /// Uniform randomly select an available node from the view.
    Rand,
    /// Select the first node from the view (lowest hop count, freshest).
    Head,
    /// Select the last node from the view (highest hop count, stalest).
    Tail,
}

/// View selection policy: which `c` entries survive truncation after a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewSelection {
    /// Uniform randomly select `c` elements without replacement.
    Rand,
    /// Keep the first `c` elements (freshest information).
    Head,
    /// Keep the last `c` elements (stalest information).
    Tail,
}

/// View propagation policy: the symmetry of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewPropagation {
    /// The initiator sends its view to the selected peer.
    Push,
    /// The initiator requests the view from the selected peer.
    Pull,
    /// The initiator and selected peer exchange their respective views.
    PushPull,
}

impl ViewPropagation {
    /// True if the initiator sends view content (push or pushpull).
    pub const fn is_push(self) -> bool {
        matches!(self, ViewPropagation::Push | ViewPropagation::PushPull)
    }

    /// True if the initiator expects view content back (pull or pushpull).
    pub const fn is_pull(self) -> bool {
        matches!(self, ViewPropagation::Pull | ViewPropagation::PushPull)
    }
}

/// A point in the paper's protocol design space: `(ps, vs, vp)`.
///
/// Displayed and parsed in the paper's notation, e.g.
/// `(rand,head,pushpull)`.
///
/// # Examples
///
/// ```
/// use pss_core::PolicyTriple;
///
/// let newscast: PolicyTriple = "(rand,head,pushpull)".parse()?;
/// assert_eq!(newscast, PolicyTriple::newscast());
/// assert_eq!(newscast.to_string(), "(rand,head,pushpull)");
/// # Ok::<(), pss_core::ParsePolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyTriple {
    /// Peer selection dimension.
    pub peer_selection: PeerSelection,
    /// View selection dimension.
    pub view_selection: ViewSelection,
    /// View propagation dimension.
    pub propagation: ViewPropagation,
}

impl PolicyTriple {
    /// Creates a policy triple.
    pub const fn new(
        peer_selection: PeerSelection,
        view_selection: ViewSelection,
        propagation: ViewPropagation,
    ) -> Self {
        PolicyTriple {
            peer_selection,
            view_selection,
            propagation,
        }
    }

    /// The peer-sampling component of Lpbcast: `(rand,rand,push)`.
    pub const fn lpbcast() -> Self {
        PolicyTriple::new(
            PeerSelection::Rand,
            ViewSelection::Rand,
            ViewPropagation::Push,
        )
    }

    /// Newscast: `(rand,head,pushpull)`.
    pub const fn newscast() -> Self {
        PolicyTriple::new(
            PeerSelection::Rand,
            ViewSelection::Head,
            ViewPropagation::PushPull,
        )
    }

    /// The eight protocols the paper evaluates in depth: peer selection
    /// `rand`/`tail` × view selection `head`/`rand` × propagation
    /// `push`/`pushpull` (the remaining combinations were discarded after
    /// preliminary experiments — see [`PolicyTriple::is_degenerate`]).
    ///
    /// Order matches the paper's tables: push protocols first.
    pub fn paper_eight() -> [PolicyTriple; 8] {
        use PeerSelection as Ps;
        use ViewPropagation as Vp;
        use ViewSelection as Vs;
        [
            PolicyTriple::new(Ps::Rand, Vs::Head, Vp::Push),
            PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::Push),
            PolicyTriple::new(Ps::Tail, Vs::Head, Vp::Push),
            PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::Push),
            PolicyTriple::new(Ps::Rand, Vs::Head, Vp::PushPull),
            PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
            PolicyTriple::new(Ps::Tail, Vs::Head, Vp::PushPull),
            PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::PushPull),
        ]
    }

    /// All 27 combinations, in lexicographic (ps, vs, vp) order.
    pub fn all() -> Vec<PolicyTriple> {
        let ps = [
            PeerSelection::Rand,
            PeerSelection::Head,
            PeerSelection::Tail,
        ];
        let vs = [
            ViewSelection::Rand,
            ViewSelection::Head,
            ViewSelection::Tail,
        ];
        let vp = [
            ViewPropagation::Push,
            ViewPropagation::Pull,
            ViewPropagation::PushPull,
        ];
        let mut out = Vec::with_capacity(27);
        for &p in &ps {
            for &v in &vs {
                for &g in &vp {
                    out.push(PolicyTriple::new(p, v, g));
                }
            }
        }
        out
    }

    /// True for the combinations the paper excluded as "not meaningful
    /// overlay management protocols" (Section 4.3): `(head,*,*)` causes
    /// severe clustering, `(*,tail,*)` cannot absorb joining nodes, and
    /// `(*,*,pull)` converges to a star topology.
    pub const fn is_degenerate(self) -> bool {
        matches!(self.peer_selection, PeerSelection::Head)
            || matches!(self.view_selection, ViewSelection::Tail)
            || matches!(self.propagation, ViewPropagation::Pull)
    }
}

impl fmt::Display for PeerSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PeerSelection::Rand => "rand",
            PeerSelection::Head => "head",
            PeerSelection::Tail => "tail",
        })
    }
}

impl fmt::Display for ViewSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViewSelection::Rand => "rand",
            ViewSelection::Head => "head",
            ViewSelection::Tail => "tail",
        })
    }
}

impl fmt::Display for ViewPropagation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViewPropagation::Push => "push",
            ViewPropagation::Pull => "pull",
            ViewPropagation::PushPull => "pushpull",
        })
    }
}

impl fmt::Display for PolicyTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{})",
            self.peer_selection, self.view_selection, self.propagation
        )
    }
}

/// Error returned when parsing a policy or policy triple fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
}

impl ParsePolicyError {
    fn new(input: &str) -> Self {
        ParsePolicyError {
            input: input.to_owned(),
        }
    }
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid policy `{}`; expected e.g. `(rand,head,pushpull)`",
            self.input
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PeerSelection {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "rand" => Ok(PeerSelection::Rand),
            "head" => Ok(PeerSelection::Head),
            "tail" => Ok(PeerSelection::Tail),
            other => Err(ParsePolicyError::new(other)),
        }
    }
}

impl FromStr for ViewSelection {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "rand" => Ok(ViewSelection::Rand),
            "head" => Ok(ViewSelection::Head),
            "tail" => Ok(ViewSelection::Tail),
            other => Err(ParsePolicyError::new(other)),
        }
    }
}

impl FromStr for ViewPropagation {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "push" => Ok(ViewPropagation::Push),
            "pull" => Ok(ViewPropagation::Pull),
            "pushpull" => Ok(ViewPropagation::PushPull),
            other => Err(ParsePolicyError::new(other)),
        }
    }
}

impl FromStr for PolicyTriple {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let inner = trimmed
            .strip_prefix('(')
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap_or(trimmed);
        let mut parts = inner.split(',');
        let (Some(ps), Some(vs), Some(vp), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ParsePolicyError::new(s));
        };
        Ok(PolicyTriple::new(ps.parse()?, vs.parse()?, vp.parse()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_predicates() {
        assert!(ViewPropagation::Push.is_push());
        assert!(!ViewPropagation::Push.is_pull());
        assert!(!ViewPropagation::Pull.is_push());
        assert!(ViewPropagation::Pull.is_pull());
        assert!(ViewPropagation::PushPull.is_push());
        assert!(ViewPropagation::PushPull.is_pull());
    }

    #[test]
    fn presets_match_paper() {
        assert_eq!(PolicyTriple::lpbcast().to_string(), "(rand,rand,push)");
        assert_eq!(PolicyTriple::newscast().to_string(), "(rand,head,pushpull)");
    }

    #[test]
    fn paper_eight_are_distinct_and_non_degenerate() {
        let eight = PolicyTriple::paper_eight();
        for (i, a) in eight.iter().enumerate() {
            assert!(!a.is_degenerate(), "{a} should not be degenerate");
            for b in &eight[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn all_has_27_unique_entries() {
        let all = PolicyTriple::all();
        assert_eq!(all.len(), 27);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // 8 survivors + 19 degenerate combinations.
        let degenerate = all.iter().filter(|p| p.is_degenerate()).count();
        assert_eq!(degenerate, 19);
    }

    #[test]
    fn degenerate_rules() {
        assert!("(head,head,pushpull)"
            .parse::<PolicyTriple>()
            .unwrap()
            .is_degenerate());
        assert!("(rand,tail,push)"
            .parse::<PolicyTriple>()
            .unwrap()
            .is_degenerate());
        assert!("(rand,head,pull)"
            .parse::<PolicyTriple>()
            .unwrap()
            .is_degenerate());
        assert!(!PolicyTriple::newscast().is_degenerate());
    }

    #[test]
    fn parse_round_trips() {
        for p in PolicyTriple::all() {
            let text = p.to_string();
            let back: PolicyTriple = text.parse().unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn parse_accepts_unparenthesized_and_whitespace() {
        let p: PolicyTriple = "tail, rand, push".parse().unwrap();
        assert_eq!(
            p,
            PolicyTriple::new(
                PeerSelection::Tail,
                ViewSelection::Rand,
                ViewPropagation::Push
            )
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("(rand,head)".parse::<PolicyTriple>().is_err());
        assert!("(rand,head,pushpull,extra)"
            .parse::<PolicyTriple>()
            .is_err());
        assert!("(rnd,head,push)".parse::<PolicyTriple>().is_err());
        assert!("".parse::<PolicyTriple>().is_err());
        let err = "(x,y,z)".parse::<PolicyTriple>().unwrap_err();
        assert!(err.to_string().contains("invalid policy"));
    }

    #[test]
    fn individual_policy_parsing() {
        assert_eq!(
            "rand".parse::<PeerSelection>().unwrap(),
            PeerSelection::Rand
        );
        assert_eq!(
            " head ".parse::<ViewSelection>().unwrap(),
            ViewSelection::Head
        );
        assert_eq!(
            "pushpull".parse::<ViewPropagation>().unwrap(),
            ViewPropagation::PushPull
        );
        assert!("HEAD".parse::<PeerSelection>().is_err());
    }
}
