//! The event-driven engine: gossip with timer jitter, latency and loss.
//!
//! The paper's experiments use an idealized synchronous cycle model. This
//! example runs the same protocol under increasingly hostile asynchrony and
//! shows the overlay shrugging it off — the extension result recorded in
//! EXPERIMENTS.md (X2).
//!
//! ```sh
//! cargo run --release --example event_driven
//! ```

use peer_sampling::sim::LatencyModel;
use peer_sampling::{scenario, EventConfig, PolicyTriple, ProtocolConfig, ShardedEventSimulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 1000;
    const PERIOD: u64 = 1000; // abstract ticks per gossip period

    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
    println!("protocol: {protocol}, {N} nodes, 60 periods of simulated time");
    println!(
        "{:>10} {:>10} {:>8} {:>12} {:>11} {:>10}",
        "jitter", "latency", "loss", "avg degree", "clustering", "connected"
    );

    let settings = [
        (0u64, LatencyModel::Zero, 0.00),
        (100, LatencyModel::Uniform { min: 10, max: 100 }, 0.00),
        (300, LatencyModel::Uniform { min: 10, max: 300 }, 0.05),
        (450, LatencyModel::Uniform { min: 50, max: 500 }, 0.20),
    ];

    for (jitter, latency, loss) in settings {
        let mut sim = ShardedEventSimulation::new(
            protocol.clone(),
            EventConfig {
                period: PERIOD,
                jitter,
                latency,
                loss_probability: loss,
            },
            2026,
            1,
        )
        .expect("valid event config");
        // Tree bootstrap: every joiner knows an introducer.
        scenario::seed_tree(&mut sim, N);
        sim.run_for(60 * PERIOD);

        let graph = sim.csr_snapshot().graph().undirected();
        let connected =
            peer_sampling::graph::components::connected_components(&graph).is_connected();
        let clustering = peer_sampling::graph::clustering::clustering_coefficient(&graph);
        let latency_text = match latency {
            LatencyModel::Zero => "0".to_owned(),
            LatencyModel::Uniform { min, max } => format!("{min}-{max}"),
        };
        println!(
            "{:>10} {:>10} {:>7.0}% {:>12.2} {:>11.4} {:>10}",
            format!("±{jitter}"),
            latency_text,
            loss * 100.0,
            graph.average_degree(),
            clustering,
            if connected { "yes" } else { "NO" },
        );
    }

    // The same asynchrony, sharded: the conservative-lookahead engine runs
    // the event queues shard-parallel, and worker count never changes
    // results (only wall-clock) — the trajectory is fixed by (seed, shards).
    println!("\nsharded event engine (N = 10_000, lookahead = min latency):");
    for workers in [1usize, 4] {
        let mut sim = peer_sampling::sim::scenario::event_random_overlay_sharded(
            &protocol,
            EventConfig::default(),
            10_000,
            2026,
            4,
        )?;
        sim.set_workers(workers);
        sim.run_for(20 * PERIOD);
        let report = sim.report();
        println!(
            "  4 shards / {workers} worker(s): {} events, {} exchanges completed, \
             avg degree {:.2}",
            sim.events_processed(),
            report.exchanges_completed,
            sim.csr_snapshot().graph().undirected().average_degree(),
        );
    }
    Ok(())
}
