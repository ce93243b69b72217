//! Micro-rows: one public function of one layer timed in a loop, on inputs
//! taken from a converged c = 30 overlay of `pop` nodes that the rows build
//! themselves from the seed. The numbers are hot-cache costs per call; the
//! `*_share` rows of the workloads say how much of a workload they leave
//! unexplained.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use pss_core::wire::{self, DecodeScratch, FrameKind, NetAddr};
use pss_core::{
    Arena, GossipNode, MergeScratch, NodeDescriptor, NodeId, PeerSamplingNode, PeerSelection,
    PolicyTriple, ProtocolConfig, View, ViewPropagation, ViewSelection,
};
use pss_net::{MemNetwork, Transport, UdpTransport};
use pss_sim::LatencyModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::harness::{allocs_during, Tracer};

pub type Rows = BTreeMap<&'static str, f64>;

/// The paper's view size, used by every workload and every row.
pub const VIEW_SIZE: usize = 30;

/// Frames per burst of the transport rows: the UDP receive ring's default
/// depth, so a burst just fits the ring.
const BURST: usize = 16;

pub fn newscast() -> ProtocolConfig {
    ProtocolConfig::new(PolicyTriple::newscast(), VIEW_SIZE).expect("c = 30 is valid")
}

/// SplitMix64 finalizer: derives per-node and per-purpose seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall time each row measures for.
#[derive(Debug, Clone, Copy)]
pub struct MicroSize {
    pub pop: usize,
    pub warm_rounds: usize,
    pub row: Duration,
}

/// Runs `batch` (which performs `ops` calls) until `size.row` has elapsed,
/// under one span, and returns nanoseconds per call.
fn ns_per_op(
    tracer: &mut Tracer,
    name: &'static str,
    size: MicroSize,
    ops: usize,
    mut batch: impl FnMut(),
) -> f64 {
    tracer.time(name, || {
        let started = Instant::now();
        let mut done = 0usize;
        loop {
            batch();
            done += ops;
            let elapsed = started.elapsed();
            if elapsed >= size.row {
                return elapsed.as_nanos() as f64 / done as f64;
            }
        }
    })
}

/// `pop` nodes of one policy, each seeded with c distinct random peers.
fn population(policy: PolicyTriple, size: MicroSize, seed: u64) -> Vec<PeerSamplingNode> {
    let config = ProtocolConfig::new(policy, VIEW_SIZE).expect("c = 30 is valid");
    let want = VIEW_SIZE.min(size.pop - 1);
    (0..size.pop)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(mix(seed ^ (i as u64) << 20));
            let picks = rand::seq::index::sample(&mut rng, size.pop - 1, want);
            let mut node = PeerSamplingNode::with_seed(
                NodeId::new(i as u64),
                config.clone(),
                mix(seed ^ i as u64),
            );
            node.init(picks.iter().map(|p| {
                let target = if p >= i { p + 1 } else { p };
                NodeDescriptor::fresh(NodeId::new(target as u64))
            }));
            node
        })
        .collect()
}

/// One gossip round the way every driver runs it: initiate →
/// handle_request → handle_reply, through one arena. Returns exchanges.
fn exchange_round(nodes: &mut [PeerSamplingNode], arena: &mut Arena) -> usize {
    let mut exchanges = 0;
    for i in 0..nodes.len() {
        let Some(exchange) = nodes[i].initiate(arena) else {
            continue;
        };
        let from = nodes[i].id();
        let peer = exchange.peer.as_index();
        if let Some(reply) = nodes[peer].handle_request(arena, from, exchange.request) {
            nodes[i].handle_reply(arena, exchange.peer, reply);
        }
        exchanges += 1;
    }
    exchanges
}

/// `core::node` and `core::view` rows. Returns the converged newscast
/// population for the rows that need frames.
pub fn node_and_view_rows(
    tracer: &mut Tracer,
    size: MicroSize,
    seed: u64,
    rows: &mut Rows,
) -> Vec<PeerSamplingNode> {
    let policies: [(&'static str, &'static str, PolicyTriple); 3] = [
        (
            "node.exchange_ns.newscast",
            "node.exchange.newscast",
            PolicyTriple::newscast(),
        ),
        (
            "node.exchange_ns.lpbcast",
            "node.exchange.lpbcast",
            PolicyTriple::lpbcast(),
        ),
        (
            "node.exchange_ns.tail-pushpull",
            "node.exchange.tail-pushpull",
            PolicyTriple::new(
                PeerSelection::Tail,
                ViewSelection::Head,
                ViewPropagation::PushPull,
            ),
        ),
    ];
    let mut newscast_nodes = Vec::new();
    for (metric, span, policy) in policies {
        let mut nodes = population(policy, size, seed);
        let mut arena = Arena::new();
        for _ in 0..size.warm_rounds {
            exchange_round(&mut nodes, &mut arena);
        }
        let (mut rounds, mut exchanges) = (0usize, 0usize);
        let (ns_per_round, allocs) = allocs_during(|| {
            ns_per_op(tracer, span, size, 1, || {
                rounds += 1;
                exchanges += black_box(exchange_round(&mut nodes, &mut arena));
            })
        });
        rows.insert(metric, ns_per_round * rounds as f64 / exchanges as f64);
        if policy == PolicyTriple::newscast() {
            rows.insert("node.exchange_allocs", allocs as f64);
            newscast_nodes = nodes;
        }
    }

    // View rows, on the converged newscast views. A received buffer is what
    // `absorb` hands to the merge: the sender's view with its own fresh
    // descriptor spliced in, aged by the transfer.
    let views: Vec<View> = newscast_nodes.iter().map(|n| n.view().clone()).collect();
    let received: Vec<Vec<NodeDescriptor>> = newscast_nodes
        .iter()
        .map(|n| outgoing(n).iter().map(|d| d.aged()).collect())
        .collect();
    let pop = size.pop;
    let mut rng = SmallRng::seed_from_u64(mix(seed ^ 0x7669_6577));
    let mut scratch = MergeScratch::default();
    let mut work = views.clone();
    let mut shift = 0usize;
    let merge_ns = ns_per_op(tracer, "view.merge_select", size, pop, || {
        shift = shift % (pop - 1) + 1; // never pairs a view with itself
        for (i, view) in work.iter_mut().enumerate() {
            let merged = view.merge_select_from_slice(
                &received[(i + shift) % pop],
                Some(NodeId::new(i as u64)),
                ViewSelection::Head,
                VIEW_SIZE,
                &mut rng,
                &mut scratch,
            );
            debug_assert!(merged);
        }
    });
    rows.insert("view.merge_select_ns", merge_ns);
    let age_ns = ns_per_op(tracer, "view.age", size, pop, || {
        for view in &mut work {
            view.increase_hop_counts();
        }
    });
    rows.insert("view.age_ns", age_ns);
    let sample_ns = ns_per_op(tracer, "view.sample", size, pop, || {
        for view in &views {
            black_box(view.sample(&mut rng));
        }
    });
    rows.insert("view.sample_ns", sample_ns);
    newscast_nodes
}

/// What a node pushes: its view with `(self, 0)` after the hop-0 entries.
fn outgoing(node: &PeerSamplingNode) -> Vec<NodeDescriptor> {
    let entries = node.view().descriptors();
    let at = entries.partition_point(|d| d.hop_count() == 0);
    let mut out = entries[..at].to_vec();
    out.push(NodeDescriptor::fresh(node.id()));
    out.extend_from_slice(&entries[at..]);
    out
}

/// `core::wire` rows. Returns one full-size frame for the transport rows.
pub fn wire_rows(
    tracer: &mut Tracer,
    size: MicroSize,
    nodes: &[PeerSamplingNode],
    rows: &mut Rows,
) -> Vec<u8> {
    let addr = NetAddr::Sock("127.0.0.1:4100".parse().expect("literal address"));
    let pop = nodes.len();
    let contents: Vec<Vec<NodeDescriptor>> = nodes.iter().map(outgoing).collect();
    let encode_one = |buf: &mut Vec<u8>, i: usize, take: usize| {
        let descriptors = &contents[i][..take.min(contents[i].len())];
        wire::encode(
            buf,
            FrameKind::Request,
            true,
            NodeId::new(i as u64),
            NodeId::new(((i + 1) % pop) as u64),
            addr,
            descriptors,
            |_| Some(addr),
        )
        .expect("a view fits a frame");
    };

    let mut buf = Vec::new();
    encode_one(&mut buf, 0, usize::MAX); // sizes the reused buffer
    let (encode_ns, encode_allocs) = allocs_during(|| {
        ns_per_op(tracer, "wire.encode", size, pop, || {
            for i in 0..pop {
                encode_one(&mut buf, i, usize::MAX);
                black_box(buf.len());
            }
        })
    });
    rows.insert("wire.encode_ns", encode_ns);
    rows.insert("wire.frame_bytes", buf.len() as f64);

    let frames_of = |take: usize| -> Vec<Vec<u8>> {
        (0..pop)
            .map(|i| {
                let mut frame = Vec::new();
                encode_one(&mut frame, i, take);
                frame
            })
            .collect()
    };
    let mut out = Vec::with_capacity(VIEW_SIZE + 1);
    let mut scratch = DecodeScratch::new();
    let mut decode_all = |frames: &[Vec<u8>]| {
        for bytes in frames {
            let frame = wire::decode(bytes).expect("own frames decode");
            wire::read_descriptors(&frame, &mut out, &mut scratch, |id, addr| {
                black_box((id, addr));
            })
            .expect("own descriptors decode");
            black_box(out.len());
        }
    };
    let full = frames_of(usize::MAX);
    decode_all(&full); // sizes the scratch table
    let mut decoded = 0usize;
    let (decode_ns, decode_allocs) = allocs_during(|| {
        ns_per_op(tracer, "wire.decode", size, pop, || {
            decode_all(&full);
            decoded += pop;
        })
    });
    rows.insert("wire.decode_ns", decode_ns);
    // Small frames show the fixed cost per frame.
    let small = frames_of(8);
    let small_ns = ns_per_op(tracer, "wire.decode.c8", size, pop, || decode_all(&small));
    rows.insert("wire.decode_ns.c8", small_ns);
    rows.insert(
        "wire.allocs_per_frame",
        (encode_allocs + decode_allocs) as f64 / decoded.max(1) as f64,
    );
    buf
}

/// `net::mem` rows: one endpoint sending to itself through the mesh.
pub fn mem_rows(tracer: &mut Tracer, size: MicroSize, seed: u64, frame: &[u8], rows: &mut Rows) {
    let latency = LatencyModel::Uniform { min: 10, max: 50 };
    let net = MemNetwork::new(mix(seed ^ 0x006d_656d), latency, 0.0).expect("zero loss is valid");
    let mut endpoint = net.endpoint();
    let to = endpoint.net_addr();
    let mut buf = Vec::new();
    let mut now = 0u64;
    let mut received = 0usize;
    let mut burst = |endpoint: &mut pss_net::MemTransport| {
        for _ in 0..BURST {
            black_box(endpoint.send(to, frame));
        }
        now += 50; // the latency model's maximum: everything sent is due
        endpoint.advance_to(now);
        while endpoint.try_recv(&mut buf).is_some() {
            received += 1;
        }
    };
    burst(&mut endpoint); // sizes the receive buffer
    let (frame_ns, allocs) =
        allocs_during(|| ns_per_op(tracer, "mem.frame", size, BURST, || burst(&mut endpoint)));
    rows.insert("mem.frame_ns", frame_ns);
    rows.insert(
        "mem.allocs_per_frame",
        allocs as f64 / (received - BURST) as f64,
    );
}

/// `net::udp` rows: one transport sending frames to itself over loopback in
/// bursts of the ring depth, then draining them.
pub fn udp_rows(
    tracer: &mut Tracer,
    size: MicroSize,
    frame: &[u8],
    rows: &mut Rows,
) -> std::io::Result<()> {
    let mut transport = UdpTransport::bind("127.0.0.1:0")?;
    let to = transport.net_addr();
    let mut buf = Vec::new();
    let (mut sent, mut received) = (0u64, 0u64);
    let (mut send_time, mut recv_time) = (Duration::ZERO, Duration::ZERO);
    let started = Instant::now();
    tracer.time("udp.burst", || {
        while started.elapsed() < size.row * 2 {
            let t = Instant::now();
            for _ in 0..BURST {
                black_box(transport.send(to, frame));
            }
            send_time += t.elapsed();
            sent += BURST as u64;
            // Drain until the burst is in or a frame is 2 ms overdue.
            let mut got = 0;
            let mut last = Instant::now();
            while got < BURST && last.elapsed() < Duration::from_millis(2) {
                let t = Instant::now();
                if transport.try_recv(&mut buf).is_some() {
                    recv_time += t.elapsed();
                    got += 1;
                    last = Instant::now();
                } else {
                    std::hint::spin_loop();
                }
            }
            received += got as u64;
        }
    });
    let wall = started.elapsed().as_secs_f64();
    rows.insert("udp.send_ns", send_time.as_nanos() as f64 / sent as f64);
    rows.insert(
        "udp.recv_ns",
        recv_time.as_nanos() as f64 / received.max(1) as f64,
    );
    rows.insert("udp.burst_frames_per_s", received as f64 / wall);
    rows.insert("udp.burst_loss_share", 1.0 - received as f64 / sent as f64);
    Ok(())
}
