//! PageRank power iteration over a partitioned handle: one internally
//! heterogeneous graph (hub rows over a banded tail), sharded at
//! registration so each row regime runs in its own format.
//!
//! The service decides *whether* to shard with its machine-model cost
//! gate; here a small shard target plus `cost_gate: false` forces the
//! partitioned path so the example is deterministic, and the printed
//! shard table shows the format each shard ended up in. The iteration
//! itself is ordinary `service.spmv` calls — partitioned execution is
//! transparent to the caller.
//!
//! ```text
//! cargo run --release --example partitioned_pagerank [nodes] [iterations]
//! ```

use morpheus_repro::corpus::gen::hetero::hub_plus_banded;
use morpheus_repro::machine::{systems, Backend, VirtualEngine};
use morpheus_repro::morpheus::DynamicMatrix;
use morpheus_repro::oracle::{Oracle, PartitionPolicy, RunFirstTuner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let iterations: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(40);
    let damping = 0.85;

    // Hub rows (~n/20 of them, scattered links) over a banded tail: the
    // shape whole-matrix format selection loses on, and the reason the
    // partitioner splits at the regime shift.
    let mut rng = StdRng::seed_from_u64(42);
    let hub = (n / 20).max(1);
    let m = DynamicMatrix::from(hub_plus_banded(n, hub, 48.min(n), 2, &mut rng));
    let nnz = m.nnz();

    let service = Oracle::builder()
        .engine(VirtualEngine::new(systems::cirrus(), Backend::OpenMp))
        .tuner(RunFirstTuner::new(1))
        .workers(4)
        .partition_policy(PartitionPolicy {
            target_shard_nnz: Some((nnz / 6).max(2_048)),
            cost_gate: false,
            ..Default::default()
        })
        .build_service()
        .expect("engine and tuner set");

    let t0 = Instant::now();
    let h = service.register_partitioned(m).expect("register");
    println!(
        "registered {n}x{n} ({nnz} nnz) as {} shard(s) in {:.1} ms",
        h.num_shards(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let pm = h.partition().expect("partitioned handle");
    for (i, s) in pm.shards().iter().enumerate() {
        println!(
            "  shard {i}: rows {:>6}..{:<6} nnz {:>8}  format {}",
            s.rows().start,
            s.rows().end,
            s.nnz(),
            s.format_id()
        );
    }

    // Power iteration: r <- (1-d)/n + d * A r, normalised each step.
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - damping) / n as f64;
    let t1 = Instant::now();
    for it in 0..iterations {
        service.spmv(&h, &rank, &mut next).expect("spmv");
        let mut norm = 0.0;
        for v in next.iter_mut() {
            *v = base + damping * *v;
            norm += v.abs();
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b / norm).abs()).sum::<f64>();
        for v in next.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut rank, &mut next);
        if delta < 1e-12 {
            println!("converged after {} iteration(s)", it + 1);
            break;
        }
    }
    let elapsed = t1.elapsed().as_secs_f64();

    let mut top: Vec<(usize, f64)> = rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "{iterations} iteration(s) in {:.1} ms ({:.1} us/spmv)",
        elapsed * 1e3,
        elapsed / iterations as f64 * 1e6
    );
    println!("top ranked nodes (hub rows are 0..{hub}):");
    for (node, score) in top.iter().take(5) {
        println!("  node {node:>6}: {score:.3e}");
    }
    let metrics = service.obs_snapshot().metrics;
    println!(
        "service: {} handle(s), {} request(s)",
        metrics.counter("serve.matrices_registered"),
        metrics.counter("serve.requests_served")
    );
}
