//! Quickstart: build a Newscast overlay, let it converge, sample peers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use peer_sampling::{scenario, NodeId, PolicyTriple, ProtocolConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a protocol instance from the paper's design space. Newscast
    //    is (rand,head,pushpull); Lpbcast's sampler is (rand,rand,push).
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 30)?;
    println!("protocol: {config}");

    // 2. Bootstrap 1000 nodes from a random initial topology and run the
    //    gossip for 50 cycles.
    let mut sim = scenario::random_overlay(&config, 1000, 42);
    sim.run_cycles(50);

    // 3. Inspect the resulting communication topology.
    let graph = sim.csr_snapshot().graph().undirected();
    let components = peer_sampling::graph::components::connected_components(&graph);
    println!("nodes:               {}", graph.node_count());
    println!("undirected edges:    {}", graph.edge_count() / 2);
    println!("average degree:      {:.2}", graph.average_degree());
    println!(
        "clustering coeff:    {:.4}",
        peer_sampling::graph::clustering::clustering_coefficient(&graph)
    );
    println!(
        "average path length: {:.3}",
        peer_sampling::graph::paths::average_path_length(&graph).average
    );
    println!("connected:           {}", components.is_connected());

    // 4. Use the service: getPeer() returns a peer drawn from the view.
    print!("five samples for node 0:");
    for _ in 0..5 {
        let peer = sim.get_peer(NodeId::new(0)).expect("view is non-empty");
        print!(" {peer}");
    }
    println!();
    Ok(())
}
