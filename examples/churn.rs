//! Self-healing under catastrophic failure and continuous churn.
//!
//! Shows the paper's Figure 7 result live: after killing half the overlay,
//! head view selection flushes dead links exponentially fast while random
//! view selection barely heals — and an overlay under continuous churn
//! stays connected with head selection.
//!
//! ```sh
//! cargo run --release --example churn
//! ```

use peer_sampling::{scenario, PolicyTriple, ProtocolConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 2000;

    println!("== catastrophic failure: kill 50% at once ==");
    for policy in [
        "(rand,head,pushpull)".parse::<PolicyTriple>()?,
        "(rand,rand,pushpull)".parse::<PolicyTriple>()?,
    ] {
        let config = ProtocolConfig::new(policy, 30)?;
        let mut sim = scenario::random_overlay(&config, N, 5);
        sim.run_cycles(60);
        sim.kill_random_fraction(0.5);
        print!("{policy}: dead links");
        for _ in 0..6 {
            sim.run_cycles(5);
            print!(" → {}", sim.dead_link_count());
        }
        let graph = sim.csr_snapshot().graph().undirected();
        let components = peer_sampling::graph::components::connected_components(&graph);
        println!("   (connected: {})", components.is_connected());
    }

    println!();
    println!("== continuous churn: 2% of nodes replaced per cycle ==");
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
    let mut sim = scenario::random_overlay(&config, N, 9);
    sim.run_cycles(30);
    let churn = N / 50;
    for step in 1..=5 {
        for _ in 0..10 {
            sim.kill_random(churn);
            sim.add_nodes_with_random_contacts(churn, 3);
            sim.run_cycle();
        }
        let graph = sim.csr_snapshot().graph().undirected();
        let components = peer_sampling::graph::components::connected_components(&graph);
        println!(
            "after {:>3} churn cycles: {} live nodes, dead links {}, \
             largest component {}/{}",
            30 + step * 10,
            sim.alive_count(),
            sim.dead_link_count(),
            components.largest(),
            graph.node_count(),
        );
    }
    Ok(())
}
