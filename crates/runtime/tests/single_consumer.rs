//! Dataflow invariants the engine's move-not-clone hot path relies on.
//!
//! `NodeCore` moves a decoded vector out of its decode outputs into
//! the one `Merge` or `Update` that consumes it, and `Update` installs
//! the aggregate into the cell's accumulator, which outcome collection
//! then reads. Both are only correct if every graph a strategy builds
//! has
//!
//! 1. exactly one local `Merge`/`Update` consumer per `Decode`
//!    (resolved through barriers, as the engine resolves it), and
//! 2. no write to a cell's accumulator after that cell's `Update`:
//!    every `Source`, `Merge`, `Encode` (which may rescale a degraded
//!    accumulator) and other `Update` on the same node and chunk
//!    precedes it.
//!
//! A future strategy that fans a decode out, or keeps accumulating
//! after installing, fails here instead of producing wrong outcomes.

use hipress_compress::Algorithm;
use hipress_core::graph::{task, ChunkId, Primitive, TaskGraph, TaskId, TaskNode};
use hipress_core::plan::{CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress_core::{ClusterConfig, Strategy};
use std::collections::HashSet;

fn algorithms() -> [Algorithm; 6] {
    [
        Algorithm::None,
        Algorithm::OneBit,
        Algorithm::Tbq { tau: 0.05 },
        Algorithm::TernGrad { bitwidth: 2 },
        Algorithm::Dgc { rate: 0.001 },
        Algorithm::GradDrop { rate: 0.01 },
    ]
}

fn spec(alg: Algorithm, partitions: usize) -> IterationSpec {
    let compressor = alg.build();
    IterationSpec {
        gradients: [700usize, 123, 1 << 16]
            .iter()
            .enumerate()
            .map(|(g, &n)| SyncGradient {
                name: format!("g{g}"),
                bytes: (n * 4) as u64,
                ready_offset_ns: 0,
                plan: GradPlan {
                    compress: compressor.is_some(),
                    partitions,
                },
            })
            .collect(),
        compression: compressor.as_deref().map(CompressionSpec::of),
    }
}

/// Every graph under test: each strategy × 2–4 nodes × every codec ×
/// 1–2 partitions.
fn graphs() -> Vec<(String, TaskGraph)> {
    let mut out = Vec::new();
    for strategy in Strategy::all() {
        for nodes in 2..=4 {
            for alg in algorithms() {
                for partitions in 1..=2 {
                    let graph = strategy
                        .build(&ClusterConfig::ec2(nodes), &spec(alg, partitions))
                        .expect("strategy builds");
                    let label = format!("{strategy:?} × {nodes} nodes × {alg:?} × K={partitions}");
                    out.push((label, graph));
                }
            }
        }
    }
    out
}

/// All transitive dependencies of `id`.
fn ancestors(graph: &TaskGraph, id: TaskId) -> HashSet<TaskId> {
    let mut seen = HashSet::new();
    let mut stack = graph.task(id).deps.clone();
    while let Some(d) = stack.pop() {
        if seen.insert(d) {
            stack.extend(graph.task(d).deps.iter().copied());
        }
    }
    seen
}

/// Decodes without exactly one same-node `Merge`/`Update` consumer.
fn decode_fan_out(graph: &TaskGraph) -> Vec<String> {
    let mut bad = Vec::new();
    for d in graph.tasks().iter().filter(|t| t.prim == Primitive::Decode) {
        let consumers: Vec<&TaskNode> = graph
            .tasks()
            .iter()
            .filter(|t| matches!(t.prim, Primitive::Merge | Primitive::Update))
            .filter(|t| graph.find_dep(t.id, Primitive::Decode) == Some(d.id))
            .collect();
        if consumers.len() != 1 || consumers[0].node != d.node {
            let ids: Vec<TaskId> = consumers.iter().map(|t| t.id).collect();
            bad.push(format!("decode {:?} on node {} → {ids:?}", d.id, d.node));
        }
    }
    bad
}

/// Accumulator writes on an `Update`'s node and chunk that are not
/// ordered before it.
fn late_writes(graph: &TaskGraph) -> Vec<String> {
    let mut bad = Vec::new();
    for u in graph.tasks().iter().filter(|t| t.prim == Primitive::Update) {
        let before = ancestors(graph, u.id);
        for t in graph.tasks() {
            let writes = matches!(
                t.prim,
                Primitive::Source | Primitive::Merge | Primitive::Encode | Primitive::Update
            );
            if writes
                && t.id != u.id
                && t.node == u.node
                && t.chunk == u.chunk
                && !before.contains(&t.id)
            {
                bad.push(format!("{:?} {:?} after update {:?}", t.prim, t.id, u.id));
            }
        }
    }
    bad
}

#[test]
fn every_decode_has_exactly_one_local_consumer() {
    let mut decodes = 0;
    for (label, graph) in graphs() {
        decodes += graph.count(Primitive::Decode);
        let bad = decode_fan_out(&graph);
        assert!(bad.is_empty(), "{label}: {bad:?}");
    }
    assert!(decodes > 0, "the matrix must contain decodes");
}

#[test]
fn update_is_the_last_write_to_its_cell() {
    for (label, graph) in graphs() {
        assert!(graph.count(Primitive::Update) > 0, "{label}: no updates");
        let bad = late_writes(&graph);
        assert!(bad.is_empty(), "{label}: {bad:?}");
    }
}

/// Both checks catch a hand-built violation: a second merge of a
/// decoded vector (reached through a barrier), which the update does
/// not wait for.
#[test]
fn checks_reject_a_fanned_out_decode() {
    let chunk = ChunkId { grad: 0, part: 0 };
    let mut g = TaskGraph::new();
    let mut add = |prim, deps: Vec<TaskId>| {
        let mut t = task(0, prim, chunk);
        t.deps = deps;
        g.add(t)
    };
    let source = add(Primitive::Source, vec![]);
    let recv = add(Primitive::Recv, vec![]);
    let decode = add(Primitive::Decode, vec![recv]);
    let barrier = add(Primitive::Barrier, vec![decode]);
    add(Primitive::Update, vec![source, decode]);
    add(Primitive::Merge, vec![barrier]);
    assert_eq!(decode_fan_out(&g).len(), 1);
    assert_eq!(late_writes(&g).len(), 1);
}
