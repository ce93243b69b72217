//! Explore the full 27-point protocol design space at small scale.
//!
//! Prints, for every (peer selection, view selection, propagation) triple,
//! the converged overlay's shape and whether it exhibits the pathologies
//! that made the paper exclude it (Section 4.3): star collapse for
//! pull-only, join-deafness for tail view selection, clustering for head
//! peer selection.
//!
//! ```sh
//! cargo run --release --example policy_explorer
//! ```

use peer_sampling::{scenario, PolicyTriple, ProtocolConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 400;
    const C: usize = 15;

    println!(
        "{:<26} {:>6} {:>9} {:>9} {:>10}  paper verdict",
        "policy", "comps", "clust", "maxdeg/N", "join deg"
    );
    for policy in PolicyTriple::all() {
        let config = ProtocolConfig::new(policy, C)?;
        let mut sim = scenario::random_overlay(&config, N, 23);
        sim.run_cycles(80);

        // Join phase: 40 fresh nodes, one contact each.
        let joined_from = sim.node_count();
        sim.add_nodes_with_random_contacts(40, 1);
        sim.run_cycles(25);

        let snapshot = sim.csr_snapshot();
        let graph = snapshot.graph().undirected();
        let components = peer_sampling::graph::components::connected_components(&graph);
        let clustering = peer_sampling::graph::clustering::clustering_coefficient(&graph);
        let max_deg_frac = graph.max_degree() as f64 / (graph.node_count() - 1) as f64;
        let joiner_deg: f64 = (joined_from..joined_from + 40)
            .filter_map(|i| snapshot.index_of(peer_sampling::NodeId::new(i as u64)))
            .map(|idx| graph.degree(idx) as f64)
            .sum::<f64>()
            / 40.0;

        println!(
            "{:<26} {:>6} {:>9.4} {:>9.3} {:>10.1}  {}",
            policy.to_string(),
            components.count(),
            clustering,
            max_deg_frac,
            joiner_deg,
            if policy.is_degenerate() {
                "degenerate"
            } else {
                "kept"
            }
        );
    }
    Ok(())
}
