//! The five workloads. Each builds its inputs from the seed, sets up (timed
//! as `setup_s`), measures for the requested seconds, checks its output,
//! and with tracing on adds the per-layer numbers of the layers on its path.
//!
//! Layers are measured from outside: by timing calls into their public
//! functions and reading their public report structs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pss_core::{NodeDescriptor, NodeId, PeerSamplingNode, View};
use pss_net::cluster::{self, ClusterConfig};
use pss_net::{MemNetwork, MemTransport, NetAddr, NetConfig, NetRuntime, RuntimeStats};
use pss_protocols::{run_under_workload, AppConfig};
use pss_sim::workload::{measure_rows, run_workload, Op, Partition, PeriodRecord};
use pss_sim::{
    scenario, CycleReport, EventConfig, ShardedSimulation, StreamingMetrics, Workload,
    WorkloadTarget,
};

use crate::harness::{
    allocs, child_coverage, count_allocs, median, peak_rss_mb, process_cpu, summarize, CpuTime,
    Digest, Summary, Tracer,
};
use crate::micro::{self, mix, newscast, MicroSize, Rows, VIEW_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shards of both engines. Two shards on one worker exercise the mailbox
/// transpose without needing a second core.
const SHARDS: usize = 2;

/// Bootstrap introducers per node on the runtime workloads: the tree
/// parent plus random earlier nodes, as `pss_net::cluster` does it.
const INTRODUCERS: usize = 3;

/// Sizes of every workload. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] is the self-test's.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Set-ups per run of the engine and runtime workloads (median reported).
    pub setups: usize,
    /// Fewest measured segments, whatever `--seconds` says.
    pub min_segments: usize,
    pub engine_nodes: usize,
    pub cycle_warmup: u64,
    pub cycle_segment: u64,
    pub event_warmup: u64,
    pub event_segment: u64,
    pub churn_nodes: usize,
    /// Plain cycles before the schedule starts, so that `setup_s` is not
    /// the two-worker population build alone, which is bimodal on a host
    /// whose second core comes and goes (0.047 s or 0.09 s).
    pub churn_warmup: u64,
    pub runtime_nodes: usize,
    pub runtime_warmup: u64,
    pub runtime_segment: u64,
    pub cluster_nodes: usize,
    pub cluster_period_ms: u64,
    pub cluster_jitter_ms: u64,
    /// Periods of a cluster run counted as warm-up in `setup_s`.
    pub cluster_warmup: u64,
    /// Period by which the cluster must have 99 % full views.
    pub cluster_converge_by: u64,
    pub micro: MicroSize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            setups: 3,
            min_segments: 4,
            engine_nodes: 50_000,
            cycle_warmup: 10,
            cycle_segment: 5,
            event_warmup: 4,
            event_segment: 3,
            churn_nodes: 50_000,
            churn_warmup: 5,
            runtime_nodes: 20_000,
            runtime_warmup: 15,
            runtime_segment: 3,
            cluster_nodes: 1000,
            cluster_period_ms: 100,
            cluster_jitter_ms: 20,
            cluster_warmup: 10,
            cluster_converge_by: 5,
            micro: MicroSize {
                pop: 2048,
                warm_rounds: 15,
                row: Duration::from_millis(60),
            },
        }
    }

    pub fn tiny() -> Self {
        Sizes {
            setups: 2,
            min_segments: 2,
            engine_nodes: 500,
            cycle_warmup: 10,
            cycle_segment: 2,
            event_warmup: 6,
            event_segment: 2,
            churn_nodes: 500,
            churn_warmup: 5,
            runtime_nodes: 300,
            runtime_warmup: 12,
            runtime_segment: 2,
            cluster_nodes: 64,
            cluster_period_ms: 100,
            cluster_jitter_ms: 20,
            cluster_warmup: 4,
            cluster_converge_by: 8,
            micro: MicroSize {
                pop: 128,
                warm_rounds: 15,
                row: Duration::from_millis(5),
            },
        }
    }

    /// The churn schedule, run on the warmed-up overlay: one pass of every
    /// membership verb, ending at the initial population size with 20
    /// periods to heal and inform joiners (with 15, one joiner in 50 000
    /// stayed uninformed on 1 seed of 10).
    pub fn churn_schedule(&self) -> String {
        format!(
            "churn:0.01x5,kill:0.2,quiet:5,flash:{},quiet:5,part:2x5,quiet:10",
            self.churn_nodes / 5
        )
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics of a timed run, per-layer metrics of a traced one.
    pub metrics: Rows,
    /// Quartiles of the metrics that are medians of several samples.
    pub samples: BTreeMap<&'static str, Summary>,
    pub digest: Option<u64>,
    pub params: Vec<(&'static str, String)>,
    pub spans: Vec<crate::harness::Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// One correctness check of a workload's output.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything a workload needs from its caller.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub tracer: Tracer,
    gates: Vec<Gate>,
    samples: BTreeMap<&'static str, Summary>,
    metrics: Rows,
}

/// The measured interval of a segmented workload.
#[derive(Debug, Default)]
struct Segments {
    wall: Vec<f64>,
    /// Node-periods simulated per segment.
    work: Vec<f64>,
    traced: Vec<bool>,
    allocs: Vec<u64>,
    /// Process CPU seconds over the whole interval.
    cpu: f64,
}

impl Segments {
    fn total_wall(&self) -> f64 {
        self.wall.iter().sum()
    }

    fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }

    fn rates(&self) -> Vec<f64> {
        self.work
            .iter()
            .zip(&self.wall)
            .map(|(w, t)| w / t)
            .collect()
    }

    /// Cost of tracing: seconds per node-period in traced segments over the
    /// same in the untraced segments of the same run, minus one.
    fn overhead_share(&self) -> f64 {
        let cost = |traced: bool| {
            let costs: Vec<f64> = (0..self.wall.len())
                .filter(|&i| self.traced[i] == traced)
                .map(|i| self.wall[i] / self.work[i])
                .collect();
            median(&costs)
        };
        cost(true) / cost(false) - 1.0
    }

    /// Allocations per node-period, over the traced segments.
    fn allocs_per_work(&self) -> f64 {
        let (mut allocs, mut work) = (0.0, 0.0);
        for i in (0..self.wall.len()).filter(|&i| self.traced[i]) {
            allocs += self.allocs[i] as f64;
            work += self.work[i];
        }
        allocs / work
    }
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Self {
        Ctx {
            seed,
            seconds,
            trace,
            sizes,
            tracer: Tracer::new(trace),
            gates: Vec::new(),
            samples: BTreeMap::new(),
            metrics: Rows::new(),
        }
    }

    fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        self.gates.push(Gate { name, ok, detail });
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the median of `values` under `name`, keeping the quartiles.
    fn set_median(&mut self, name: &'static str, values: &[f64]) {
        let summary = summarize(values);
        self.set(name, summary.median);
        self.samples.insert(name, summary);
    }

    /// Runs `body` segment after segment until `seconds` of measuring have
    /// elapsed. `body` returns the node-periods it simulated. In a traced
    /// run every other segment has spans and the allocation counter off, so
    /// the run measures its own tracing overhead.
    fn run_segments(&mut self, mut body: impl FnMut(&mut Tracer) -> f64) -> Segments {
        let mut s = Segments::default();
        let cpu = process_cpu();
        let started = Instant::now();
        while s.wall.len() < self.sizes.min_segments
            || started.elapsed().as_secs_f64() < self.seconds
            || (self.trace && s.wall.len() % 2 == 1)
        {
            let traced = self.trace && s.wall.len() % 2 == 0;
            self.tracer.on = traced;
            count_allocs(traced);
            let allocs_before = allocs();
            let span = self.tracer.enter("segment");
            let t = Instant::now();
            let work = body(&mut self.tracer);
            s.wall.push(t.elapsed().as_secs_f64());
            self.tracer.exit(span);
            s.allocs.push(allocs() - allocs_before);
            s.work.push(work);
            s.traced.push(traced);
        }
        count_allocs(false);
        self.tracer.on = self.trace;
        s.cpu = process_cpu().since(cpu).total();
        s
    }

    /// Reads the memory peak. Called when the measured interval ends, before
    /// the micro-rows allocate inputs of their own.
    fn mark_peak_rss(&mut self) {
        if self.trace {
            self.set("peak_rss_mb", peak_rss_mb());
        }
    }

    /// The end-to-end metrics every workload reports.
    fn end_to_end(&mut self, rates: &[f64], cpu_s: f64, exchanges: u64, setups: &[f64]) {
        self.set_median("node_periods_per_s", rates);
        self.set("cpu_us_per_exchange", cpu_s * 1e6 / exchanges as f64);
        self.set_median("setup_s", setups);
    }

    /// Gates shared by the steady workloads: the overlay the measured
    /// interval leaves behind is the converged overlay the paper describes.
    fn overlay_gates(&mut self, overlay: &Overlay) {
        let live = overlay.metrics.live_nodes;
        self.gate(
            "full_views",
            overlay.full_views as f64 >= 0.99 * live as f64,
            format!("{} of {live} views full", overlay.full_views),
        );
        self.gate(
            "one_component",
            overlay.metrics.largest_component == live,
            format!(
                "largest component {} of {live}",
                overlay.metrics.largest_component
            ),
        );
        let mean = overlay.metrics.mean_in_degree();
        self.gate(
            "in_degree_mean",
            (mean - VIEW_SIZE as f64).abs() <= 0.01 * VIEW_SIZE as f64,
            format!("mean in-degree {mean:.3}, c = {VIEW_SIZE}"),
        );
    }

    /// Every measured segment's child spans must cover it.
    fn coverage_gate(&mut self) {
        if !self.trace {
            return;
        }
        let spans = self.tracer.spans();
        let worst = (0..spans.len())
            .filter(|&i| spans[i].name == "segment")
            .map(|i| child_coverage(spans, i))
            .fold(1.0, f64::min);
        self.gate(
            "span_coverage",
            worst >= 0.95,
            format!(
                "children cover {:.1} % of the least covered segment",
                worst * 100.0
            ),
        );
    }

    fn finish(
        mut self,
        workload: &'static str,
        attempted: u64,
        failed: u64,
        digest: Option<u64>,
        params: Vec<(&'static str, String)>,
    ) -> Outcome {
        self.coverage_gate();
        if self.trace {
            // Unless the workload has a share of its own to report.
            self.metrics
                .entry("failed_share")
                .or_insert(failed as f64 / attempted.max(1) as f64);
        }
        Outcome {
            workload,
            gates: self.gates,
            attempted,
            failed,
            metrics: self.metrics,
            samples: self.samples,
            digest,
            params,
            spans: self.tracer.spans().to_vec(),
        }
    }
}

/// Overlay statistics the gates read, from any stack's view iterator.
struct Overlay {
    metrics: StreamingMetrics,
    full_views: usize,
}

fn overlay_of(id_space: usize, for_each: impl Fn(&mut dyn FnMut(NodeId, &View))) -> Overlay {
    let mut full_views = 0;
    for_each(&mut |_, view| full_views += usize::from(view.len() == VIEW_SIZE));
    Overlay {
        metrics: StreamingMetrics::from_views(id_space, for_each),
        full_views,
    }
}

/// Hash of every live view in id order, then the report counters.
fn sim_digest(for_each: impl FnOnce(&mut dyn FnMut(NodeId, &View)), counters: &[u64]) -> u64 {
    let mut views: Vec<(u64, u64)> = Vec::new();
    for_each(&mut |id, view| {
        let mut d = Digest::new();
        for descriptor in view.descriptors() {
            d.word(descriptor.id().as_u64());
            d.word(u64::from(descriptor.hop_count()));
        }
        views.push((id.as_u64(), d.finish()));
    });
    views.sort_unstable();
    let mut d = Digest::new();
    for (id, hash) in views {
        d.word(id);
        d.word(hash);
    }
    for &c in counters {
        d.word(c);
    }
    d.finish()
}

/// All set-ups of one run start from one seed, so they must agree.
fn digest_gate(ctx: &mut Ctx, digests: &[u64]) -> Option<u64> {
    let first = *digests.first()?;
    ctx.gate(
        "deterministic",
        digests.iter().all(|&d| d == first),
        format!(
            "{} runs from one seed, sim_digest {first:016x}",
            digests.len()
        ),
    );
    Some(first)
}

/// Wall seconds per unit at one worker over the same at two, median of
/// three alternating pairs. Never gated: the second core may not be there.
fn speedup_w2(mut seconds_per_unit: impl FnMut(usize) -> f64) -> f64 {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(seconds_per_unit(1));
        two.push(seconds_per_unit(2));
    }
    println!("  speedup_w2 samples: 1 worker {one:.4?} s, 2 workers {two:.4?} s");
    median(&one) / median(&two)
}

fn engine_params(nodes: usize) -> Vec<(&'static str, String)> {
    vec![
        ("nodes", nodes.to_string()),
        ("shards", SHARDS.to_string()),
        ("workers", "1".into()),
        ("view_size", VIEW_SIZE.to_string()),
    ]
}

pub fn run(name: &str, ctx: Ctx) -> Outcome {
    match name {
        "cycle_steady" => cycle_steady(ctx),
        "event_steady" => event_steady(ctx),
        "churn_app" => churn_app(ctx),
        "runtime_mem" => runtime_mem(ctx),
        "cluster_udp" => cluster_udp(ctx),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------------
// cycle_steady
// ---------------------------------------------------------------------------

fn cycle_report_counters(r: &CycleReport) -> [u64; 4] {
    [
        r.completed,
        r.failed_dead_peer,
        r.empty_view,
        r.dropped_messages,
    ]
}

fn cycle_steady(mut ctx: Ctx) -> Outcome {
    let n = ctx.sizes.engine_nodes;
    let config = newscast();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..ctx.sizes.setups {
        drop(built.take()); // one population at a time, for the memory peak
        let span = ctx.tracer.enter("setup");
        let t = Instant::now();
        let mut sim = ctx.tracer.time("scenario.build", || {
            scenario::random_overlay_sharded(&config, n, ctx.seed, SHARDS)
        });
        sim.set_workers(1);
        let mut warm = CycleReport::default();
        for _ in 0..ctx.sizes.cycle_warmup {
            warm += ctx.tracer.time("shard.run_cycle", || sim.run_cycle());
        }
        setups.push(t.elapsed().as_secs_f64());
        ctx.tracer.exit(span);
        digests.push(sim_digest(
            |f| sim.for_each_live_view(f),
            &cycle_report_counters(&warm),
        ));
        built = Some(sim);
    }
    let mut sim = built.expect("at least one set-up");
    let digest = digest_gate(&mut ctx, &digests);

    let cycles = ctx.sizes.cycle_segment;
    let mut total = CycleReport::default();
    let segments = ctx.run_segments(|tracer| {
        let live = sim.alive_count();
        for _ in 0..cycles {
            total += tracer.time("shard.run_cycle", || sim.run_cycle());
        }
        (live as u64 * cycles) as f64
    });
    let overlay = overlay_of(sim.node_count(), |f| sim.for_each_live_view(f));
    ctx.overlay_gates(&overlay);
    ctx.mark_peak_rss();

    if ctx.trace {
        let mut rows = Rows::new();
        let span = ctx.tracer.enter("micro");
        micro::node_and_view_rows(&mut ctx.tracer, ctx.sizes.micro, ctx.seed, &mut rows);
        let speedup = ctx.tracer.time("shard.speedup_w2", || {
            speedup_w2(|workers| {
                sim.set_workers(workers);
                let t = Instant::now();
                sim.run_cycles(2);
                t.elapsed().as_secs_f64()
            })
        });
        ctx.tracer.exit(span);
        shard_rows(&mut ctx, &segments, &total, &rows);
        ctx.set("shard.speedup_w2", speedup);
        ctx.set("trace.overhead_share", segments.overhead_share());
        ctx.metrics.extend(rows);
    } else {
        ctx.end_to_end(&segments.rates(), segments.cpu, total.completed, &setups);
    }
    let failed = total.failed_dead_peer + total.empty_view + total.dropped_messages;
    ctx.finish(
        "cycle_steady",
        total.initiated(),
        failed,
        digest,
        engine_params(n),
    )
}

/// `sim::shard` rows of a cycle-engine interval of `wall` seconds.
fn shard_rows(ctx: &mut Ctx, segments: &Segments, total: &CycleReport, micro: &Rows) {
    ctx.set(
        "shard.cycle_ns_per_node",
        segments.total_wall() * 1e9 / segments.total_work(),
    );
    // The part of the interval the node layer below does not explain.
    let explained = micro["node.exchange_ns.newscast"] * total.completed as f64;
    ctx.set(
        "shard.self_share",
        1.0 - explained / (segments.total_wall() * 1e9),
    );
    ctx.set("shard.completed", total.completed as f64);
    ctx.set("shard.failed_dead_peer", total.failed_dead_peer as f64);
    ctx.set("shard.empty_view", total.empty_view as f64);
    ctx.set("shard.dropped", total.dropped_messages as f64);
}

// ---------------------------------------------------------------------------
// event_steady
// ---------------------------------------------------------------------------

fn event_steady(mut ctx: Ctx) -> Outcome {
    let n = ctx.sizes.engine_nodes;
    let config = newscast();
    let event = EventConfig::default();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..ctx.sizes.setups {
        drop(built.take());
        let span = ctx.tracer.enter("setup");
        let t = Instant::now();
        let mut sim = ctx.tracer.time("scenario.build", || {
            scenario::event_random_overlay_sharded(&config, event, n, ctx.seed, SHARDS)
                .expect("the default event configuration is valid")
        });
        sim.set_workers(1);
        for _ in 0..ctx.sizes.event_warmup {
            ctx.tracer
                .time("event.run_for", || sim.run_for(event.period));
        }
        setups.push(t.elapsed().as_secs_f64());
        ctx.tracer.exit(span);
        let r = sim.report();
        digests.push(sim_digest(
            |f| sim.for_each_live_view(f),
            &[
                r.timers_fired,
                r.exchanges_completed,
                r.requests_delivered,
                r.replies_delivered,
                sim.events_processed(),
            ],
        ));
        built = Some(sim);
    }
    let mut sim = built.expect("at least one set-up");
    let digest = digest_gate(&mut ctx, &digests);

    let periods = ctx.sizes.event_segment;
    let before = sim.report();
    let mut events = 0u64;
    let segments = ctx.run_segments(|tracer| {
        let live = sim.alive_count();
        for _ in 0..periods {
            events += tracer.time("event.run_for", || sim.run_for(event.period));
        }
        (live as u64 * periods) as f64
    });
    let total = sim.report().since(&before);
    let overlay = overlay_of(sim.node_count(), |f| sim.for_each_live_view(f));
    ctx.overlay_gates(&overlay);
    ctx.mark_peak_rss();

    if ctx.trace {
        let mut rows = Rows::new();
        let span = ctx.tracer.enter("micro");
        micro::node_and_view_rows(&mut ctx.tracer, ctx.sizes.micro, ctx.seed, &mut rows);
        let speedup = ctx.tracer.time("event.speedup_w2", || {
            speedup_w2(|workers| {
                sim.set_workers(workers);
                let t = Instant::now();
                sim.run_for(event.period);
                t.elapsed().as_secs_f64()
            })
        });
        ctx.tracer.exit(span);
        let wall_ns = segments.total_wall() * 1e9;
        ctx.set("event.ns_per_event", wall_ns / events as f64);
        ctx.set(
            "event.events_per_node_period",
            events as f64 / segments.total_work(),
        );
        let explained = rows["node.exchange_ns.newscast"] * total.exchanges_completed as f64;
        ctx.set("event.self_share", 1.0 - explained / wall_ns);
        ctx.set(
            "event.exchanges_completed",
            total.exchanges_completed as f64,
        );
        ctx.set("event.dead_deliveries", total.dead_deliveries as f64);
        ctx.set("event.dropped", total.dropped_messages as f64);
        ctx.set("event.speedup_w2", speedup);
        ctx.set("trace.overhead_share", segments.overhead_share());
        ctx.metrics.extend(rows);
    } else {
        ctx.end_to_end(
            &segments.rates(),
            segments.cpu,
            total.exchanges_completed,
            &setups,
        );
    }
    let failed = total.empty_view + total.dead_deliveries + total.dropped_messages;
    ctx.finish(
        "event_steady",
        total.timers_fired,
        failed,
        digest,
        engine_params(n),
    )
}

// ---------------------------------------------------------------------------
// churn_app
// ---------------------------------------------------------------------------

/// The cycle engine as the workload runner sees it, observed from outside:
/// counts membership operations, sums the cycle reports and stamps the start
/// of every period.
struct Observed<'a> {
    sim: &'a mut ShardedSimulation<PeerSamplingNode>,
    tracer: &'a mut Tracer,
    report: CycleReport,
    ops: u64,
    period_starts: Vec<Instant>,
    /// Wall time inside `run_cycle`.
    cycle_wall: Duration,
}

impl WorkloadTarget for Observed<'_> {
    fn kill(&mut self, id: NodeId) -> bool {
        self.ops += 1;
        self.sim.kill(id)
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        self.ops += 1;
        let got = self
            .sim
            .add_node(contacts.iter().map(|&c| NodeDescriptor::fresh(c)));
        assert_eq!(
            got, id,
            "engine assigned another id than the schedule compiled"
        );
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        self.ops += 1;
        self.sim.set_partition(partition);
    }

    fn run_period(&mut self) {
        let started = Instant::now();
        self.period_starts.push(started);
        let sim = &mut *self.sim;
        self.report += self.tracer.time("shard.run_cycle", || sim.run_cycle());
        self.cycle_wall += started.elapsed();
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        WorkloadTarget::collect_rows(&*self.sim, rows);
    }
}

/// One pass of the churn schedule over a fresh population.
struct ChurnPass {
    setup_s: f64,
    compile_ms: f64,
    wall: f64,
    cpu: f64,
    node_periods: u64,
    /// Node-periods the schedule called for that the engine did not run.
    missing: u64,
    report: CycleReport,
    /// Nanoseconds inside `run_cycle`, of `wall`.
    cycle_ns: f64,
    ops: u64,
    period_ms: Vec<f64>,
    records: Vec<PeriodRecord>,
    app: Option<pss_protocols::AppReport>,
    digest: u64,
    /// Dropped before the next pass builds its own, for the memory peak.
    sim: Option<ShardedSimulation<PeerSamplingNode>>,
}

fn churn_pass(ctx: &mut Ctx, with_app: bool) -> ChurnPass {
    let n = ctx.sizes.churn_nodes;
    let config = newscast();
    let schedule = ctx.sizes.churn_schedule();

    let span = ctx.tracer.enter("setup");
    let t = Instant::now();
    let mut sim = ctx.tracer.time("scenario.build", || {
        scenario::random_overlay_sharded(&config, n, ctx.seed, SHARDS)
    });
    sim.set_workers(1);
    let t_compile = Instant::now();
    let compiled = ctx.tracer.time("workload.compile", || {
        Workload::parse(&schedule, mix(ctx.seed ^ 0x0073_6368_6564))
            .expect("the schedule is well-formed")
            .compile(n)
    });
    let compile_ms = t_compile.elapsed().as_secs_f64() * 1e3;
    for _ in 0..ctx.sizes.churn_warmup {
        ctx.tracer.time("shard.run_cycle", || sim.run_cycle());
    }
    let setup_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(span);

    let app_config = AppConfig {
        seed: mix(ctx.seed ^ 0x0061_7070),
        ..AppConfig::default()
    };
    let span = ctx.tracer.enter("segment");
    let cpu = process_cpu();
    let t = Instant::now();
    let mut target = Observed {
        sim: &mut sim,
        tracer: &mut ctx.tracer,
        report: CycleReport::default(),
        ops: 0,
        period_starts: Vec::new(),
        cycle_wall: Duration::ZERO,
    };
    let (records, app) = if with_app {
        let inner = target.tracer.enter("protocols.run_under_workload");
        let (records, app) = run_under_workload(&mut target, &compiled, VIEW_SIZE, &app_config);
        target.tracer.exit(inner);
        (records, Some(app))
    } else {
        let inner = target.tracer.enter("workload.run_workload");
        let records = run_workload(&mut target, &compiled, VIEW_SIZE);
        target.tracer.exit(inner);
        (records, None)
    };
    let ended = Instant::now();
    let Observed {
        report,
        ops,
        period_starts,
        cycle_wall,
        ..
    } = target;
    let wall = (ended - t).as_secs_f64();
    let cpu = process_cpu().since(cpu).total();
    ctx.tracer.exit(span);

    let period_ms = period_starts
        .iter()
        .zip(period_starts.iter().skip(1).chain([&ended]))
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    // Live nodes the compiled schedule calls for after each step.
    let mut expected = compiled.initial_nodes as i64;
    let mut missing = 0;
    for (step, record) in compiled.steps.iter().zip(&records) {
        for op in &step.ops {
            match op {
                Op::Kill(_) => expected -= 1,
                Op::Join { .. } => expected += 1,
                Op::SetPartition(_) => {}
            }
        }
        missing += (expected - record.live as i64).unsigned_abs();
    }
    let mut counters = cycle_report_counters(&report).to_vec();
    if let Some(app) = &app {
        for row in app.rows() {
            counters.extend([row.informed as u64, row.delivered, row.wasted, row.blocked]);
        }
    }
    let digest = sim_digest(|f| sim.for_each_live_view(f), &counters);
    ChurnPass {
        setup_s,
        compile_ms,
        wall,
        cpu,
        node_periods: records.iter().map(|r| r.live as u64).sum(),
        missing,
        report,
        cycle_ns: cycle_wall.as_nanos() as f64,
        ops,
        period_ms,
        records,
        app,
        digest,
        sim: Some(sim),
    }
}

fn churn_app(mut ctx: Ctx) -> Outcome {
    let n = ctx.sizes.churn_nodes;
    let started = Instant::now();
    let mut passes: Vec<ChurnPass> = Vec::new();
    // A traced run makes exactly three passes: traced, untraced, and one
    // without the application layer, for the application's own cost.
    let mut bare: Option<ChurnPass> = None;
    loop {
        let traced = ctx.trace && passes.is_empty();
        ctx.tracer.on = traced;
        count_allocs(traced);
        let pass = churn_pass(&mut ctx, true);
        count_allocs(false);
        passes.push(pass);
        let enough = if ctx.trace {
            passes.len() == 2
        } else {
            passes.len() >= 2 && started.elapsed().as_secs_f64() >= ctx.seconds
        };
        if enough {
            break;
        }
        passes.last_mut().expect("just pushed").sim = None;
    }
    ctx.mark_peak_rss();
    if ctx.trace {
        passes.last_mut().expect("two passes").sim = None;
        bare = Some(churn_pass(&mut ctx, false));
    }
    ctx.tracer.on = ctx.trace;

    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    let digest = digest_gate(&mut ctx, &digests);
    let last = passes.last().expect("at least two passes");
    let app = last.app.as_ref().expect("passes run the application");
    let end = last.records.last().expect("the schedule has periods");
    ctx.gate(
        "delivery",
        app.delivery_ratio() == 1.0,
        format!(
            "rumor reached {:.4} of the live nodes",
            app.delivery_ratio()
        ),
    );
    ctx.gate(
        "no_dead_links",
        end.dead_links == 0,
        format!("{} dead links at the end", end.dead_links),
    );
    ctx.gate(
        "population_restored",
        end.live == n && last.missing == 0,
        format!(
            "{} live of {n}, {} node-periods missing",
            end.live, last.missing
        ),
    );
    let attempted: u64 = passes.iter().map(|p| p.node_periods).sum();
    let failed: u64 = passes.iter().map(|p| p.missing).sum();

    if ctx.trace {
        let (traced, plain) = (&passes[0], &passes[1]);
        let bare = bare.expect("traced runs make the bare pass");
        let mut rows = Rows::new();
        let span = ctx.tracer.enter("micro");
        micro::node_and_view_rows(&mut ctx.tracer, ctx.sizes.micro, ctx.seed, &mut rows);
        let sim = bare
            .sim
            .as_ref()
            .expect("the last pass keeps its population");
        let t = Instant::now();
        let csr = ctx
            .tracer
            .time("snapshot.csr_snapshot", || sim.csr_snapshot());
        rows.insert("snapshot.csr_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        ctx.tracer
            .time("snapshot.streaming_metrics", || sim.streaming_metrics());
        rows.insert("snapshot.streaming_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        ctx.tracer.time("graph.components", || {
            pss_graph::components::largest_weak_component(csr.graph())
        });
        rows.insert("graph.components_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut view_rows = Vec::new();
        WorkloadTarget::collect_rows(sim, &mut view_rows);
        let t = Instant::now();
        ctx.tracer.time("workload.measure_rows", || {
            measure_rows(
                sim.node_count(),
                &view_rows,
                |id| sim.is_alive(id),
                VIEW_SIZE,
            )
        });
        rows.insert("workload.measure_ms", t.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.exit(span);

        ctx.set(
            "shard.cycle_ns_per_node",
            traced.cycle_ns / traced.node_periods as f64,
        );
        let explained = rows["node.exchange_ns.newscast"] * traced.report.completed as f64;
        ctx.set("shard.self_share", 1.0 - explained / traced.cycle_ns);
        ctx.set("shard.completed", traced.report.completed as f64);
        ctx.set(
            "shard.failed_dead_peer",
            traced.report.failed_dead_peer as f64,
        );
        ctx.set("shard.empty_view", traced.report.empty_view as f64);
        ctx.set("shard.dropped", traced.report.dropped_messages as f64);
        ctx.set("workload.compile_ms", traced.compile_ms);
        ctx.set("workload.ops_applied", traced.ops as f64);
        ctx.set_median("workload.period_ms_p50", &traced.period_ms);
        ctx.set(
            "workload.period_ms_max",
            traced.period_ms.iter().copied().fold(0.0, f64::max),
        );
        ctx.set(
            "protocols.app_ns_per_node_period",
            (plain.wall - bare.wall) * 1e9 / plain.node_periods as f64,
        );
        let app = traced.app.as_ref().expect("passes run the application");
        let sum = |f: fn(&pss_protocols::AppPeriodRow) -> u64| {
            app.rows().iter().map(f).sum::<u64>() as f64
        };
        let (delivered, wasted, blocked) =
            (sum(|r| r.delivered), sum(|r| r.wasted), sum(|r| r.blocked));
        ctx.set("protocols.delivered", delivered);
        ctx.set("protocols.redundant", sum(|r| r.redundant));
        ctx.set("protocols.wasted", wasted);
        ctx.set("protocols.blocked", blocked);
        ctx.set(
            "protocols.rounds_to_99",
            app.rounds_to_99().map_or(0.0, |r| r as f64),
        );
        ctx.set(
            "trace.overhead_share",
            (traced.wall / traced.node_periods as f64) / (plain.wall / plain.node_periods as f64)
                - 1.0,
        );
        ctx.metrics.extend(rows);
        // Under injected faults the share that matters is the rumor pushes
        // that hit a dead or partitioned-off node: non-zero by design.
        ctx.set(
            "failed_share",
            (wasted + blocked) / (delivered + wasted + blocked),
        );
    } else {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.node_periods as f64 / p.wall)
            .collect();
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        let cpu: f64 = passes.iter().map(|p| p.cpu).sum();
        let exchanges: u64 = passes.iter().map(|p| p.report.completed).sum();
        ctx.end_to_end(&rates, cpu, exchanges, &setups);
    }
    let mut params = engine_params(n);
    params.push(("schedule", ctx.sizes.churn_schedule()));
    ctx.finish("churn_app", attempted, failed, digest, params)
}

// ---------------------------------------------------------------------------
// runtime_mem
// ---------------------------------------------------------------------------

/// Exchanges the runtime itself got wrong: frames it could not decode,
/// send or address.
fn runtime_errors(s: &RuntimeStats) -> u64 {
    s.decode_failures() + s.send_failures + s.missing_address
}

/// Field-wise `later − earlier` of the counters the rows use.
fn stats_since(later: &RuntimeStats, earlier: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        frames_in: later.frames_in - earlier.frames_in,
        frames_out: later.frames_out - earlier.frames_out,
        header_decode_failures: later.header_decode_failures - earlier.header_decode_failures,
        body_decode_failures: later.body_decode_failures - earlier.body_decode_failures,
        send_failures: later.send_failures - earlier.send_failures,
        missing_address: later.missing_address - earlier.missing_address,
        timers_fired: later.timers_fired - earlier.timers_fired,
        exchanges_completed: later.exchanges_completed - earlier.exchanges_completed,
        timeouts: later.timeouts - earlier.timeouts,
        backoffs: later.backoffs - earlier.backoffs,
        ..RuntimeStats::default()
    }
}

/// `net::runtime` counter rows, shared by both runtime workloads.
fn runtime_count_rows(ctx: &mut Ctx, s: &RuntimeStats) {
    ctx.set(
        "runtime.frames_per_exchange",
        s.frames_out as f64 / s.exchanges_completed as f64,
    );
    ctx.set("runtime.timeouts", s.timeouts as f64);
    ctx.set("runtime.decode_failures", s.decode_failures() as f64);
    ctx.set("runtime.missing_address", s.missing_address as f64);
    ctx.set("runtime.backoffs", s.backoffs as f64);
}

fn wire_gates(ctx: &mut Ctx, s: &RuntimeStats) {
    ctx.gate(
        "clean_wire",
        s.decode_failures() == 0 && s.missing_address == 0,
        format!(
            "{} decode failures, {} missing addresses",
            s.decode_failures(),
            s.missing_address
        ),
    );
}

fn runtime_mem(mut ctx: Ctx) -> Outcome {
    let n = ctx.sizes.runtime_nodes;
    let config = newscast();
    let event = EventConfig::default();
    let period = event.period;
    let build = |seed: u64| -> (MemNetwork, NetRuntime<MemTransport>) {
        let net = MemNetwork::from_event(mix(seed ^ 0x6d65_6d6e_6574), &event)
            .expect("the default event configuration is valid");
        let transport = net.endpoint();
        let addr: NetAddr = transport.net_addr();
        let mut rt = NetRuntime::new(transport, NetConfig::from_event(&event), seed)
            .expect("the default timer configuration is valid");
        // The cluster harness's bootstrap: the tree parent i / 2 first, then
        // random earlier nodes. (With the parent alone the overlay split
        // into several components on 7 seeds of 10 at N = 20 000.)
        let mut boot_rng = SmallRng::seed_from_u64(mix(seed ^ 0xb007));
        let mut introducers: Vec<(NodeId, NetAddr)> = Vec::new();
        for i in 0..n as u64 {
            let node = PeerSamplingNode::with_seed(NodeId::new(i), config.clone(), mix(seed ^ i));
            introducers.clear();
            if i > 0 {
                introducers.push((NodeId::new(i / 2), addr));
            }
            while introducers.len() < INTRODUCERS.min(i as usize) {
                let pick = NodeId::new(boot_rng.random_range(0..i));
                if introducers.iter().all(|(id, _)| *id != pick) {
                    introducers.push((pick, addr));
                }
            }
            rt.add_node(node, &introducers);
        }
        (net, rt)
    };

    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..ctx.sizes.setups {
        drop(built.take());
        let span = ctx.tracer.enter("setup");
        let t = Instant::now();
        let (net, mut rt) = ctx.tracer.time("scenario.build", || build(ctx.seed));
        let warm_until = ctx.sizes.runtime_warmup * period;
        ctx.tracer
            .time("runtime.run_until", || rt.run_until(warm_until));
        setups.push(t.elapsed().as_secs_f64());
        ctx.tracer.exit(span);
        let s = rt.stats();
        digests.push(sim_digest(
            |f| rt.for_each_live_view(f),
            &[
                s.frames_in,
                s.frames_out,
                s.timers_fired,
                s.exchanges_completed,
            ],
        ));
        built = Some((net, rt));
    }
    let (net, mut rt) = built.expect("at least one set-up");
    let digest = digest_gate(&mut ctx, &digests);

    let periods = ctx.sizes.runtime_segment;
    let before = rt.stats();
    let segments = ctx.run_segments(|tracer| {
        let deadline = rt.now() + periods * period;
        tracer.time("runtime.run_until", || rt.run_until(deadline));
        (n as u64 * periods) as f64
    });
    let total = stats_since(&rt.stats(), &before);
    let overlay = overlay_of(n, |f| rt.for_each_live_view(f));
    ctx.overlay_gates(&overlay);
    ctx.mark_peak_rss();
    wire_gates(&mut ctx, &rt.stats());

    if ctx.trace {
        let mut rows = Rows::new();
        let span = ctx.tracer.enter("micro");
        let nodes =
            micro::node_and_view_rows(&mut ctx.tracer, ctx.sizes.micro, ctx.seed, &mut rows);
        let frame = micro::wire_rows(&mut ctx.tracer, ctx.sizes.micro, &nodes, &mut rows);
        micro::mem_rows(
            &mut ctx.tracer,
            ctx.sizes.micro,
            ctx.seed,
            &frame,
            &mut rows,
        );
        ctx.tracer.exit(span);
        let wall_ns = segments.total_wall() * 1e9;
        let exchanges = total.exchanges_completed as f64;
        ctx.set("runtime.us_per_exchange", wall_ns / 1e3 / exchanges);
        let explained = rows["node.exchange_ns.newscast"] * exchanges
            + rows["wire.encode_ns"] * total.frames_out as f64
            + rows["wire.decode_ns"] * total.frames_in as f64
            + rows["mem.frame_ns"] * total.frames_out as f64;
        ctx.set("runtime.self_share", 1.0 - explained / wall_ns);
        ctx.set(
            "runtime.allocs_per_exchange",
            segments.allocs_per_work() * segments.total_work() / exchanges,
        );
        runtime_count_rows(&mut ctx, &total);
        ctx.set("mem.lost", net.lost() as f64);
        ctx.set("mem.unroutable", net.unroutable() as f64);
        ctx.set("trace.overhead_share", segments.overhead_share());
        ctx.metrics.extend(rows);
    } else {
        ctx.end_to_end(
            &segments.rates(),
            segments.cpu,
            total.exchanges_completed,
            &setups,
        );
    }
    let params = vec![
        ("nodes", n.to_string()),
        ("runtimes", "1".into()),
        ("view_size", VIEW_SIZE.to_string()),
        (
            "bootstrap",
            format!("tree parent + random earlier nodes, {INTRODUCERS} introducers"),
        ),
    ];
    // In virtual time nothing can stall, so a timeout is a failure too.
    let failed = total.timeouts + runtime_errors(&total);
    ctx.finish("runtime_mem", total.timers_fired, failed, digest, params)
}

// ---------------------------------------------------------------------------
// cluster_udp
// ---------------------------------------------------------------------------

/// One `cluster::run`, timed and CPU-accounted from outside.
struct ClusterPass {
    report: cluster::ClusterReport,
    wall: f64,
    cpu: CpuTime,
    allocs: u64,
}

fn cluster_pass(ctx: &mut Ctx, periods: u64) -> std::io::Result<ClusterPass> {
    let config = ClusterConfig {
        nodes: ctx.sizes.cluster_nodes,
        runtimes: 1,
        protocol: newscast(),
        period_ms: ctx.sizes.cluster_period_ms,
        jitter_ms: ctx.sizes.cluster_jitter_ms,
        periods,
        introducers: INTRODUCERS,
        seed: ctx.seed,
        workload: None,
        honest_policy: None,
        broadcast: None,
    };
    let span = ctx.tracer.enter("segment");
    let allocs_before = allocs();
    let cpu = process_cpu();
    let t = Instant::now();
    let report = ctx.tracer.time("cluster.run", || cluster::run(&config));
    let wall = t.elapsed().as_secs_f64();
    let cpu = process_cpu().since(cpu);
    ctx.tracer.exit(span);
    Ok(ClusterPass {
        report: report?,
        wall,
        cpu,
        allocs: allocs() - allocs_before,
    })
}

fn cluster_udp(mut ctx: Ctx) -> Outcome {
    let sizes = ctx.sizes.clone();
    let periods_for = |seconds: f64| -> u64 {
        let wanted = (seconds * 1e3 / sizes.cluster_period_ms as f64).round() as u64;
        wanted.max(sizes.cluster_warmup.max(sizes.cluster_converge_by) + 2)
    };
    // A traced run splits its seconds over a traced and an untraced pass.
    let periods = periods_for(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    count_allocs(ctx.trace);
    let first = cluster_pass(&mut ctx, periods);
    count_allocs(false);
    let pass = match first {
        Ok(pass) => pass,
        Err(e) => {
            ctx.gate(
                "cluster_runs",
                false,
                format!("loopback UDP unavailable: {e}"),
            );
            return ctx.finish("cluster_udp", 1, 1, None, Vec::new());
        }
    };
    let report = &pass.report;
    let stats = report.stats;
    let exchanges = stats.exchanges_completed as f64;

    let end = report.records.last().expect("the run has periods");
    ctx.gate(
        "full_views",
        end.full_views as f64 >= 0.99 * end.live as f64,
        format!("{} of {} views full", end.full_views, end.live),
    );
    ctx.gate(
        "one_component",
        end.largest_component == end.live && end.live == sizes.cluster_nodes,
        format!(
            "largest component {} of {}",
            end.largest_component, end.live
        ),
    );
    ctx.gate(
        "in_degree_mean",
        (end.in_degree_mean - VIEW_SIZE as f64).abs() <= 0.01 * VIEW_SIZE as f64,
        format!("mean in-degree {:.3}, c = {VIEW_SIZE}", end.in_degree_mean),
    );
    wire_gates(&mut ctx, &stats);
    ctx.gate(
        "converged",
        report
            .converged_at
            .is_some_and(|p| p <= sizes.cluster_converge_by),
        format!(
            "99 % full views at period {:?}, wanted by {}",
            report.converged_at, sizes.cluster_converge_by
        ),
    );

    ctx.mark_peak_rss();
    if ctx.trace {
        ctx.tracer.on = false;
        let plain = cluster_pass(&mut ctx, periods);
        ctx.tracer.on = true;
        let mut rows = Rows::new();
        let span = ctx.tracer.enter("micro");
        let nodes = micro::node_and_view_rows(&mut ctx.tracer, sizes.micro, ctx.seed, &mut rows);
        let frame = micro::wire_rows(&mut ctx.tracer, sizes.micro, &nodes, &mut rows);
        if let Err(e) = micro::udp_rows(&mut ctx.tracer, sizes.micro, &frame, &mut rows) {
            ctx.gate("udp_rows", false, format!("loopback UDP unavailable: {e}"));
        }
        ctx.tracer.exit(span);

        let cpu_ns = pass.cpu.total() * 1e9;
        ctx.set("runtime.us_per_exchange", cpu_ns / 1e3 / exchanges);
        ctx.set(
            "runtime.allocs_per_exchange",
            pass.allocs as f64 / exchanges,
        );
        runtime_count_rows(&mut ctx, &stats);
        let get = |name: &str| rows.get(name).copied().unwrap_or(0.0);
        let explained = get("node.exchange_ns.newscast") * exchanges
            + (get("wire.encode_ns") + get("udp.send_ns")) * stats.frames_out as f64
            + (get("wire.decode_ns") + get("udp.recv_ns")) * stats.frames_in as f64;
        ctx.set("cluster.unattributed_share", 1.0 - explained / cpu_ns);
        ctx.set("cluster.sys_cpu_share", pass.cpu.system / pass.cpu.total());
        ctx.set("cluster.frames_per_s", report.frames_per_sec());
        // How late the open loop ran: each period was due at a fixed time.
        let lag: Vec<f64> = report
            .periods
            .iter()
            .map(|p| p.wall_ms as f64 - (p.period * sizes.cluster_period_ms) as f64)
            .collect();
        ctx.set_median("cluster.period_lag_ms_p50", &lag);
        ctx.set(
            "cluster.period_lag_ms_max",
            lag.iter().copied().fold(f64::MIN, f64::max),
        );
        ctx.set(
            "cluster.converged_at",
            report.converged_at.map_or(0.0, |p| p as f64),
        );
        ctx.set(
            "udp.ring_empty_per_kframe",
            stats.recv_ring_empty as f64 * 1e3 / stats.frames_in as f64,
        );
        let overhead = match &plain {
            Ok(plain) => {
                let cost =
                    |p: &ClusterPass| p.cpu.total() / p.report.stats.exchanges_completed as f64;
                cost(&pass) / cost(plain) - 1.0
            }
            Err(_) => 0.0,
        };
        ctx.set("trace.overhead_share", overhead);
        ctx.set(
            "failed_share",
            (stats.timeouts + runtime_errors(&stats)) as f64 / stats.timers_fired.max(1) as f64,
        );
        ctx.metrics.extend(rows);
    } else {
        // Everything `cluster::run` did outside its paced periods (sockets,
        // population, teardown) plus the periods counted as warm-up.
        let warm = &report.periods[sizes.cluster_warmup as usize - 1];
        let setup = (pass.wall - report.elapsed.as_secs_f64()) + warm.wall_ms as f64 / 1e3;
        // Open loop: the rate is offered, so throughput is what was achieved.
        let achieved = exchanges / report.elapsed.as_secs_f64();
        ctx.end_to_end(
            &[achieved],
            pass.cpu.total(),
            stats.exchanges_completed,
            &[setup],
        );
    }
    let params = vec![
        ("nodes", sizes.cluster_nodes.to_string()),
        ("runtimes", "1".into()),
        ("view_size", VIEW_SIZE.to_string()),
        ("period_ms", sizes.cluster_period_ms.to_string()),
        ("jitter_ms", sizes.cluster_jitter_ms.to_string()),
        ("periods", periods.to_string()),
        ("transport", "loopback UDP".into()),
    ];
    // On the wall clock a timeout is a datagram the kernel dropped while the
    // host stalled the receive thread (0 to 0.7 % of the exchanges per run on
    // the sizing host): it measures the host, lowers the achieved rate above,
    // and is reported per layer (`runtime.timeouts`, `failed_share`).
    ctx.finish(
        "cluster_udp",
        stats.timers_fired,
        runtime_errors(&stats),
        None,
        params,
    )
}
