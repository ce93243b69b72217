//! Property-based tests for the simulators.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use pss_core::{NodeId, PolicyTriple, ProtocolConfig};
use pss_graph::components::largest_weak_component;
use pss_sim::workload::{
    measure_rows, run_workload, Op, Partition, PeriodRecord, PhaseSpec, ScheduleErrorKind, Workload,
};
use pss_sim::{
    scenario, CsrSnapshot, EventConfig, LatencyModel, RateAccumulator, ShardedEventSimulation,
    ShardedSimulation, TickQueue,
};

/// Builds one grammar-expressible phase from raw draws. Rates and losses
/// are permille-quantized — exactly the precision the grammar round-trips.
fn build_phase(kind: usize, periods: u64, a: usize, b: usize, k: usize) -> PhaseSpec {
    match kind {
        0 => PhaseSpec::Quiet { periods },
        1 => PhaseSpec::Churn {
            periods,
            // At least one rate nonzero, or the parser (rightly) rejects
            // the phase as a disguised quiet phase.
            leave_rate: (a % 1000) as f64 / 1000.0,
            join_rate: (b % 999 + 1) as f64 / 1000.0,
            contacts: if k.is_multiple_of(2) { None } else { Some(k) },
        },
        2 => PhaseSpec::Catastrophe {
            fraction: (a % 999 + 1) as f64 / 1000.0,
        },
        3 => PhaseSpec::FlashCrowd {
            joins: k,
            contacts: if b.is_multiple_of(3) {
                Some(1 + a % 5)
            } else {
                None
            },
            herd: b % 3 == 1,
        },
        4 => PhaseSpec::Grow {
            joins: 1 + a,
            per_period: k,
        },
        _ => {
            let groups = 2 + (k as u32 % 3);
            let (fwd, bwd) = (a % 1001, b % 1001);
            let (fwd, bwd) = if fwd == 0 && bwd == 0 {
                (1000, 1000)
            } else {
                (fwd, bwd)
            };
            PhaseSpec::Partition {
                partition: Partition::asymmetric(groups, fwd as f64 / 1000.0, bwd as f64 / 1000.0),
                periods,
            }
        }
    }
}

fn policies() -> impl Strategy<Value = PolicyTriple> {
    prop::sample::select(PolicyTriple::paper_eight().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn identical_seeds_give_identical_overlays(
        policy in policies(),
        n in 20usize..80,
        cycles in 1u64..15,
        seed in 0u64..1_000,
    ) {
        let fingerprint = |seed: u64| {
            let config = ProtocolConfig::new(policy, 8).unwrap();
            let mut sim = scenario::random_overlay(&config, n, seed);
            sim.run_cycles(cycles);
            let g = sim.csr_snapshot().graph().undirected();
            (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect::<Vec<_>>()
        };
        prop_assert_eq!(fingerprint(seed), fingerprint(seed));
    }

    #[test]
    fn views_never_exceed_capacity_nor_contain_self(
        policy in policies(),
        n in 10usize..60,
        cycles in 1u64..20,
        c in 1usize..12,
        seed in 0u64..1_000,
    ) {
        let config = ProtocolConfig::new(policy, c).unwrap();
        let mut sim = scenario::random_overlay(&config, n, seed);
        sim.run_cycles(cycles);
        for id in sim.alive_ids() {
            let view = sim.view_of(id).unwrap();
            prop_assert!(view.len() <= c);
            prop_assert!(!view.contains(id));
            prop_assert!(view.invariants_hold());
            for d in view.iter() {
                prop_assert!(d.id().as_u64() < n as u64);
            }
        }
    }

    #[test]
    fn population_counts_are_conserved(
        n in 5usize..50,
        kills in 0usize..30,
        joins in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 5).unwrap();
        let mut sim = scenario::random_overlay(&config, n, seed);
        let killed = sim.kill_random(kills).len();
        prop_assert_eq!(sim.alive_count(), n - killed);
        sim.add_nodes_with_random_contacts(joins, 2);
        prop_assert_eq!(sim.alive_count(), n - killed + joins);
        prop_assert_eq!(sim.node_count(), n + joins);
        sim.run_cycle();
        prop_assert_eq!(sim.alive_count(), n - killed + joins);
    }

    #[test]
    fn snapshot_only_contains_live_nodes(
        n in 10usize..60,
        kill_fraction in 0.0f64..0.9,
        seed in 0u64..1_000,
    ) {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut sim = scenario::random_overlay(&config, n, seed);
        sim.run_cycles(3);
        sim.kill_random_fraction(kill_fraction);
        let snap = sim.csr_snapshot();
        prop_assert_eq!(snap.node_count(), sim.alive_count());
        for &id in snap.node_ids() {
            prop_assert!(sim.is_alive(id));
        }
    }

    #[test]
    fn dead_links_are_bounded_by_total_view_entries(
        n in 10usize..60,
        seed in 0u64..1_000,
    ) {
        let c = 6usize;
        let config = ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap();
        let mut sim = scenario::random_overlay(&config, n, seed);
        sim.run_cycles(5);
        sim.kill_random_fraction(0.5);
        let bound = sim.alive_count() * c;
        prop_assert!(sim.dead_link_count() <= bound);
        sim.run_cycles(3);
        prop_assert!(sim.dead_link_count() <= bound);
    }

    #[test]
    fn peer_selection_never_targets_dead_peers(
        policy in policies(),
        n in 10usize..50,
        cycles in 1u64..10,
        seed in 0u64..1_000,
    ) {
        // selectPeer() returns a live node of the caller's view. A tenth
        // of fewer than 50 nodes is at most five deaths, fewer than the
        // view size of 6, so every full view keeps a live entry and no
        // cycle may count a dead peer.
        let config = ProtocolConfig::new(policy, 6).unwrap();
        let mut sim = scenario::random_overlay(&config, n, seed);
        sim.run_cycles(cycles);
        prop_assert!(!sim.kill_random_fraction(0.1).is_empty());
        for _ in 0..cycles {
            prop_assert_eq!(sim.run_cycle().failed_dead_peer, 0);
        }
    }

    #[test]
    fn event_engine_is_deterministic(
        n in 5usize..40,
        duration in 1_000u64..20_000,
        seed in 0u64..1_000,
    ) {
        let run = || {
            let config = ProtocolConfig::new(PolicyTriple::newscast(), 6).unwrap();
            let mut sim = ShardedEventSimulation::new(config, EventConfig::default(), seed, 1)
                .expect("valid config");
            scenario::seed_tree(&mut sim, n);
            sim.run_for(duration);
            let g = sim.csr_snapshot().graph().undirected();
            (0..n as u32).map(|v| g.neighbors(v).to_vec()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn event_engine_time_never_goes_backwards(
        steps in prop::collection::vec(100u64..5_000, 1..8),
        seed in 0u64..100,
    ) {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 6).unwrap();
        let mut sim = ShardedEventSimulation::new(
            config,
            EventConfig {
                period: 500,
                jitter: 100,
                latency: LatencyModel::Uniform { min: 1, max: 50 },
                loss_probability: 0.1,
            },
            seed,
            1,
        )
        .expect("valid config");
        sim.add_connected_nodes(10);
        let mut last = sim.now();
        for step in steps {
            sim.run_for(step);
            prop_assert!(sim.now() >= last);
            prop_assert!(sim.now() >= last + step);
            last = sim.now();
        }
    }

    #[test]
    fn event_bucket_exchange_invariants(
        shards in 1usize..5,
        n in 10usize..50,
        min_latency in 1u64..20,
        latency_spread in 0u64..30,
        jitter in 0u64..80,
        loss in 0.0f64..0.3,
        duration in 200u64..3_000,
        seed in 0u64..1_000,
    ) {
        // The three lookahead-engine invariants, checked on the delivery
        // log of a randomized run: (1) no message is delivered before its
        // send time plus the minimum latency; (2) a cross-shard message
        // sent in bucket k is never delivered in bucket k (the lookahead
        // window is never violated); (3) bucket-boundary exchange preserves
        // per-(src, dst) FIFO order — same-tick arrivals from one sender
        // shard are processed in send order.
        let period = 200u64;
        let event = EventConfig {
            period,
            jitter: jitter.min(period - 1),
            latency: LatencyModel::Uniform {
                min: min_latency,
                max: min_latency + latency_spread,
            },
            loss_probability: loss,
        };
        let window = min_latency; // = sim.lookahead()
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 6).unwrap();
        let mut sim = scenario::event_random_overlay_sharded(&config, event, n, seed, shards)
            .expect("valid config");
        prop_assert_eq!(sim.lookahead(), window);
        sim.set_record_deliveries(true);
        sim.run_for(duration);
        let log = sim.take_deliveries();
        prop_assert!(!log.is_empty());

        let mut last_same_tick: std::collections::HashMap<(u32, u32, u64), u64> =
            std::collections::HashMap::new();
        for d in &log {
            // (1) Physical latency floor.
            prop_assert!(
                d.delivered >= d.sent + min_latency,
                "delivered {} < sent {} + min {}", d.delivered, d.sent, min_latency
            );
            // (2) Conservative lookahead across shards.
            if d.src_shard != d.dst_shard {
                prop_assert!(
                    d.delivered / window > d.sent / window,
                    "cross-shard message crossed within its bucket: sent {} delivered {} window {}",
                    d.sent, d.delivered, window
                );
            }
            // (3) Same (src, dst) pair + same arrival tick ⇒ send order.
            let key = (d.src_shard, d.dst_shard, d.delivered);
            if let Some(&prev) = last_same_tick.get(&key) {
                prop_assert!(
                    d.sent_seq > prev,
                    "FIFO violated for {:?}: sent_seq {} after {}", key, d.sent_seq, prev
                );
            }
            last_same_tick.insert(key, d.sent_seq);
        }
    }

    #[test]
    fn event_worker_count_never_changes_results(
        shards in 2usize..5,
        workers in 2usize..5,
        n in 10usize..40,
        duration in 200u64..2_000,
        seed in 0u64..1_000,
    ) {
        // Randomized mini version of the worker-invariance regression test.
        let event = EventConfig {
            period: 150,
            jitter: 40,
            latency: LatencyModel::Uniform { min: 3, max: 25 },
            loss_probability: 0.05,
        };
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 6).unwrap();
        let run = |w: usize| {
            let mut sim =
                scenario::event_random_overlay_sharded(&config, event, n, seed, shards)
                    .expect("valid config");
            sim.set_workers(w);
            sim.run_for(duration);
            let mut views = Vec::new();
            sim.for_each_live_view(|id, view| {
                views.push((id, view.ids().collect::<Vec<_>>()));
            });
            (views, sim.report(), sim.events_processed())
        };
        prop_assert_eq!(run(1), run(workers));
    }

    #[test]
    fn rate_accumulator_totals_stay_within_carry_bounds(
        expected in 0.0f64..7.5,
        k in 1usize..200,
    ) {
        // k steps at a constant expectation emit ⌊k·e⌋ or ⌈k·e⌉ events:
        // the emitted total differs from the exact sum only by the
        // outstanding carry, which never reaches one.
        let mut acc = RateAccumulator::new();
        let total: usize = (0..k).map(|_| acc.step(expected)).sum();
        let exact = expected * k as f64;
        prop_assert!((total as f64 - exact).abs() < 1.0,
            "total {total} vs exact {exact}");
        prop_assert!((0.0..1.0).contains(&acc.carry()));
    }

    #[test]
    fn churn_counts_match_rate_times_population_within_carry_bounds(
        leave in 0.0f64..0.06,
        join in 0.0f64..0.06,
        n in 30usize..120,
        k in 1u64..25,
        seed in 0u64..1_000,
    ) {
        // Over k periods, total kills (joins) must equal the summed
        // per-period expectations rate·live within the accumulator's carry
        // bound — for a constant population that is rate·N·k ± 1, with no
        // stochastic drift. Compilation alone fixes the counts.
        prop_assume!(leave > 0.0 || join > 0.0);
        let schedule = format!("churn:{leave}/{join}x{k}");
        let compiled = Workload::parse(&schedule, seed).unwrap().compile(n);
        prop_assert_eq!(compiled.periods(), k);
        let (mut expect_leave, mut expect_join) = (0.0f64, 0.0f64);
        let (mut killed, mut joined, mut live) = (0usize, 0usize, n);
        for step in &compiled.steps {
            expect_leave += live as f64 * leave;
            expect_join += live as f64 * join;
            // A churn step holds only kills and joins.
            let kd = step.ops.iter().filter(|op| matches!(op, Op::Kill(_))).count();
            let jd = step.ops.len() - kd;
            killed += kd;
            joined += jd;
            live = live + jd - kd;
        }
        prop_assert!((killed as f64 - expect_leave).abs() < 1.0,
            "killed {killed} vs expected {expect_leave}");
        prop_assert!((joined as f64 - expect_join).abs() < 1.0,
            "joined {joined} vs expected {expect_join}");
        prop_assert_eq!(compiled.id_space, n + joined);
    }

    #[test]
    fn zero_rate_churn_never_mutates(
        n in 10usize..80,
        k in 1u64..20,
        seed in 0u64..1_000,
    ) {
        // Zero-rate churn cannot be scheduled, so it never compiles to a
        // membership op: both spellings are typed errors at any length.
        for schedule in [format!("churn:0x{k}"), format!("churn:0/0x{k}")] {
            let err = Workload::parse(&schedule, seed).unwrap_err();
            prop_assert_eq!(err.kind, ScheduleErrorKind::ZeroRate);
        }
        // A zero leave rate never kills.
        let compiled = Workload::parse(&format!("churn:0/0.02x{k}"), seed)
            .unwrap()
            .compile(n);
        let mut ops = compiled.steps.iter().flat_map(|s| &s.ops);
        prop_assert!(ops.all(|op| !matches!(op, Op::Kill(_))));
    }

    #[test]
    fn growing_simulation_monotonically_reaches_target(
        target in 10usize..80,
        per_cycle in 1usize..20,
        seed in 0u64..1_000,
    ) {
        // One node, then `grow:{target - 1}/{per_cycle}` and two quiet
        // periods: the population grows by at most `per_cycle` a period,
        // never past `target`, and reaches it.
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 6).unwrap();
        let mut sim = ShardedSimulation::new(config, seed, 1);
        sim.add_node([]);
        let schedule = format!("grow:{}/{per_cycle},quiet:2", target - 1);
        let compiled = Workload::parse(&schedule, seed).unwrap().compile(1);
        let records = run_workload(&mut sim, &compiled, 6);
        prop_assert_eq!(records.len(), (target - 1).div_ceil(per_cycle) + 2);
        let mut previous = 1;
        for r in &records {
            prop_assert!(r.live >= previous && r.live - previous <= per_cycle);
            prop_assert!(r.live <= target);
            previous = r.live;
        }
        prop_assert_eq!(previous, target);
    }

    #[test]
    fn schedule_grammar_round_trips_display_and_parse(
        phases in prop::collection::vec(
            (0usize..6, 1u64..25, 0usize..2000, 0usize..2000, 1usize..8),
            1..10,
        ),
        seed in 0u64..1_000,
    ) {
        let phases: Vec<PhaseSpec> = phases
            .into_iter()
            .map(|(kind, periods, a, b, k)| build_phase(kind, periods, a, b, k))
            .collect();
        let schedule = phases
            .iter()
            .map(PhaseSpec::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let parsed = Workload::parse(&schedule, seed);
        prop_assert!(parsed.is_ok(), "display output `{}` failed to parse: {:?}",
            schedule, parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.phases(), &phases[..], "via `{}`", schedule);
        let shown = parsed.to_string();
        prop_assert_eq!(Workload::parse(&shown, seed).unwrap(), parsed, "via `{}`", shown);
    }

    #[test]
    fn malformed_schedules_error_instead_of_panicking(
        schedule in prop::collection::vec(0usize..256, 0..40),
        seed in 0u64..100,
    ) {
        // Arbitrary byte soup must parse cleanly or return a typed error —
        // never panic, never silently compile phases that aren't there.
        let text: String = schedule
            .iter()
            .map(|&b| char::from_u32(b as u32).unwrap_or('?'))
            .collect();
        match Workload::parse(&text, seed) {
            Ok(w) => {
                // Whatever parsed must survive compilation and round-trip.
                let _ = w.compile(50);
                prop_assert_eq!(&Workload::parse(&w.to_string(), seed).unwrap(), &w);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

/// The structure [`TickQueue`] replaced, kept as its reference model: a
/// binary heap ordered by `(time, seq)` with `seq` the monotone push counter.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    seq: u64,
}

impl HeapModel {
    /// Pushes onto both structures; the item is the push counter itself.
    fn push_both(&mut self, queue: &mut TickQueue<u64>, time: u64) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq)));
        queue.push(time, self.seq);
    }

    fn drain_through(&mut self, limit: u64) -> Vec<(u64, u64)> {
        let mut popped = Vec::new();
        while self.heap.peek().is_some_and(|&Reverse((t, _))| t <= limit) {
            popped.push(self.heap.pop().expect("peeked").0);
        }
        popped
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential test against the heap: random interleavings of pushes
    /// and drains over rings of 1–16 slots, so that wrap-around, the
    /// overflow map, migration into a just-uncovered slot, pushes onto the
    /// tick being drained, jumps over empty stretches and `limit =
    /// u64::MAX` all occur. Both must pop the same `(time, seq)` sequence.
    #[test]
    fn tick_queue_pops_in_heap_order(
        span in 0u64..16,
        ops in prop::collection::vec((0u32..40, 0u64..48, 0u32..4), 1..160),
    ) {
        let mut queue = TickQueue::new(span);
        let mut model = HeapModel::default();
        // The lowest tick a push may still name: the last drain limit.
        let mut floor = 0u64;
        // Every run ends by draining to exhaustion.
        let ops = ops.into_iter().chain([(39, 0, 1)]);
        for (kind, offset, echo) in ops {
            let limit = match kind {
                // Near pushes: on the ring, just beyond it, onto the floor.
                0..=29 => {
                    model.push_both(&mut queue, floor.saturating_add(offset));
                    continue;
                }
                // Far pushes: an empty stretch many laps long.
                30..=32 => {
                    model.push_both(&mut queue, floor.saturating_add(offset * 1_000));
                    continue;
                }
                33..=38 => floor.saturating_add(offset),
                _ => u64::MAX,
            };
            prop_assert_eq!(queue.next_time(), model.heap.peek().map(|&Reverse((t, _))| t));
            let mut popped = Vec::new();
            let mut batch = Vec::new();
            let mut echoes = echo;
            while let Some(tick) = queue.take_tick(limit, &mut batch) {
                prop_assert!(!batch.is_empty() && tick <= limit);
                popped.extend(batch.drain(..).map(|seq| (tick, seq)));
                // A zero-latency send: onto the tick being drained. It must
                // come out of this same drain, after the tick's others.
                if echoes > 0 {
                    echoes -= 1;
                    model.push_both(&mut queue, tick);
                }
            }
            prop_assert_eq!(popped, model.drain_through(limit));
            prop_assert_eq!(queue.len(), model.heap.len());
            floor = limit;
        }
        prop_assert!(queue.is_empty());
    }
}

/// The CSR path `measure_rows` replaced, kept as its reference: compact
/// CSR, its `in_degrees`, the two-pass mean/σ, `largest_weak_component`.
fn measure_rows_by_csr(
    id_space: usize,
    rows: &[(NodeId, Vec<NodeId>)],
    is_live: impl Fn(NodeId) -> bool,
    view_size: usize,
) -> PeriodRecord {
    let csr = CsrSnapshot::from_rows(id_space, rows);
    let in_degrees = csr.graph().in_degrees();
    let n = in_degrees.len().max(1) as f64;
    let mean = in_degrees.iter().map(|&d| f64::from(d)).sum::<f64>() / n;
    let var = in_degrees
        .iter()
        .map(|&d| {
            let diff = f64::from(d) - mean;
            diff * diff
        })
        .sum::<f64>()
        / n;
    PeriodRecord {
        period: 0,
        live: rows.len(),
        killed: 0,
        joined: 0,
        full_views: rows.iter().filter(|(_, t)| t.len() == view_size).count(),
        in_degree_mean: mean,
        in_degree_sd: var.sqrt(),
        dead_links: rows
            .iter()
            .flat_map(|(_, t)| t)
            .filter(|&&t| !is_live(t))
            .count(),
        total_links: rows.iter().map(|(_, t)| t.len()).sum(),
        largest_component: largest_weak_component(csr.graph()),
        partitioned: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Per id a draw `(row, dead, targets)`: about one id in four has no
    /// row, one in three is dead (rows included), and targets range past
    /// `id_space`, so dead targets, targets without a row, out-of-space
    /// ids, self-loops, repeats, empty views and isolated nodes all occur.
    /// Every field must equal the reference, `f64`s by bits.
    #[test]
    fn measure_rows_matches_the_csr_reference(
        id_space in 1usize..48,
        draws in prop::collection::vec(
            (0u32..4, 0u32..3, prop::collection::vec(0u64..56, 0..10)),
            48,
        ),
        view_size in 1usize..8,
    ) {
        let rows: Vec<(NodeId, Vec<NodeId>)> = draws[..id_space]
            .iter()
            .enumerate()
            .filter(|(_, (row, _, _))| *row != 0)
            .map(|(id, (_, _, targets))| {
                let span = id_space as u64 + 8;
                (NodeId::new(id as u64), targets.iter().map(|&t| NodeId::new(t % span)).collect())
            })
            .collect();
        let is_live = |id: NodeId| draws.get(id.as_index()).is_none_or(|(_, dead, _)| *dead != 0);

        let got = measure_rows(id_space, &rows, is_live, view_size);
        let expected = measure_rows_by_csr(id_space, &rows, is_live, view_size);
        prop_assert_eq!(got.in_degree_mean.to_bits(), expected.in_degree_mean.to_bits());
        prop_assert_eq!(got.in_degree_sd.to_bits(), expected.in_degree_sd.to_bits());
        prop_assert_eq!(got, expected);
    }
}
