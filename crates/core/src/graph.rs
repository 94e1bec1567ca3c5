//! The synchronization task graph.
//!
//! A strategy compiles one training iteration into a DAG whose nodes
//! are instances of the paper's five primitives (plus two bookkeeping
//! pseudo-primitives). The DAG is what both execution backends
//! consume; it is also where CaSync's "task manager with a dependency
//! graph" (§3.1) materializes.

use hipress_util::{Error, Result};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// The signature of an installed plan verifier: analyzes a graph for
/// a cluster of the given size and errs on any defect.
pub type DebugVerifier = fn(&TaskGraph, usize) -> Result<()>;

static DEBUG_VERIFIER: OnceLock<DebugVerifier> = OnceLock::new();

/// Installs a plan verifier that debug builds run on every graph a
/// strategy builds and every graph the interpreter executes.
///
/// `hipress-lint` registers its verifier here (via
/// `hipress_lint::install`); the indirection keeps this crate free of
/// a dependency on its own analyzer. Idempotent: the first installed
/// verifier wins.
pub fn install_debug_verifier(v: DebugVerifier) {
    let _ = DEBUG_VERIFIER.set(v);
}

/// Runs the installed verifier, if any (no-op otherwise).
///
/// # Errors
///
/// Propagates the verifier's error on any defect.
pub fn run_debug_verifier(graph: &TaskGraph, cluster_nodes: usize) -> Result<()> {
    match DEBUG_VERIFIER.get() {
        Some(v) => v(graph, cluster_nodes),
        None => Ok(()),
    }
}

/// The synchronization primitives (§3.1), plus bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Pseudo-primitive: the gradient chunk becomes available on its
    /// worker (backward pass produced it, local aggregation done).
    Source,
    /// Compress a chunk (computing primitive).
    Encode,
    /// Decompress a received chunk (computing primitive).
    Decode,
    /// Aggregate a received (decoded or raw) chunk into the local
    /// accumulator (computing primitive).
    Merge,
    /// Transmit a chunk to a peer (communication primitive).
    Send,
    /// Receive a chunk from a peer (communication primitive).
    Recv,
    /// Pseudo-primitive: install the final aggregate locally (model
    /// update hand-off).
    Update,
    /// Pseudo-primitive: a zero-cost synchronization point. Used by
    /// the coarse-grained baseline (conventional Ring-allreduce) whose
    /// collectives are "global, atomic, bulk synchronization
    /// operations" (§2.5) — every step waits for the whole previous
    /// step.
    Barrier,
}

impl Primitive {
    /// Whether this primitive executes on the compute queue
    /// (`Q_comp`) as opposed to the communication queue (`Q_commu`).
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Primitive::Encode | Primitive::Decode | Primitive::Merge | Primitive::Update
        )
    }
}

/// What a `Send` task transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendSrc {
    /// The chunk this node last encoded (normal compressed path).
    Encoded,
    /// The chunk this node last received, forwarded verbatim
    /// (Ring-allreduce dissemination phase — §3.3's "all decode
    /// operators except the last one can overlap with gradient
    /// transmission" relies on this).
    Forward,
    /// The raw local accumulator (no-compression path).
    Raw,
}

/// Identifies a gradient partition: gradient index within the
/// iteration and partition index within the gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Gradient index (forward-layer order).
    pub grad: u32,
    /// Partition index within the gradient.
    pub part: u32,
}

/// Identifies a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// One primitive instance.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// The task's id (index in the graph).
    pub id: TaskId,
    /// The cluster node executing the task.
    pub node: usize,
    /// Which primitive this is.
    pub prim: Primitive,
    /// The gradient chunk the task operates on.
    pub chunk: ChunkId,
    /// Uncompressed chunk size in bytes (kernel cost driver).
    pub bytes_raw: u64,
    /// On-the-wire size in bytes (compressed if the chunk is
    /// compressed; equals `bytes_raw` otherwise).
    pub bytes_wire: u64,
    /// Peer node: destination for `Send`, source for `Recv`.
    pub peer: Option<usize>,
    /// What a `Send` transmits (meaningful only for `Send`).
    pub send_src: SendSrc,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Absolute earliest start (ns from iteration start); used by
    /// `Source` tasks to model backward-pass readiness.
    pub earliest_ns: u64,
    /// Whether this compute task runs on the aggregator (server)
    /// side. BytePS-style servers execute aggregation on the host
    /// CPU; the executor moves these tasks to the CPU when the
    /// runtime config says so.
    pub at_aggregator: bool,
}

/// The per-iteration DAG of synchronization tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    /// For flows that carry more than one gradient (the Horovod
    /// baseline's fusion buffers): flow id → member gradient indices.
    /// Flows absent here represent exactly their own gradient.
    flow_members: Vec<(u32, Vec<u32>)>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a task that does not exist
    /// yet (builders add tasks in dependency order).
    pub fn add(&mut self, mut task: TaskNode) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        for d in &task.deps {
            assert!(
                (d.0 as usize) < self.tasks.len(),
                "dependency {d:?} of task {id:?} does not exist yet"
            );
        }
        task.id = id;
        self.tasks.push(task);
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &TaskNode {
        &self.tasks[id.0 as usize]
    }

    /// Mutable access to the task with the given id. Mainly for tests
    /// that inject defects into otherwise-valid graphs; mutation can
    /// break the no-forward-dependency invariant [`TaskGraph::add`]
    /// enforces, which the verifier then reports.
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskNode {
        &mut self.tasks[id.0 as usize]
    }

    /// All tasks in insertion order.
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// Counts tasks of a primitive kind (the paper's "up to 3N−2
    /// extra operators per gradient" analysis, §2.5).
    pub fn count(&self, prim: Primitive) -> usize {
        self.tasks.iter().filter(|t| t.prim == prim).count()
    }

    /// Declares that flow `flow` carries the gradients `members`
    /// (fusion buffers). Used by the executor to attribute the flow's
    /// completion to every member gradient.
    pub fn set_flow_members(&mut self, flow: u32, members: Vec<u32>) {
        self.flow_members.push((flow, members));
    }

    /// The gradients carried by `flow` (defaults to the flow itself).
    pub fn flow_members(&self, flow: u32) -> Vec<u32> {
        self.flow_members
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, m)| m.clone())
            .unwrap_or_else(|| vec![flow])
    }

    /// A topological order of the tasks.
    ///
    /// Because `add` only permits dependencies on earlier tasks, the
    /// insertion order *is* topological; this verifies it and returns
    /// Kahn order for interpreters that want explicit readiness.
    ///
    /// # Errors
    ///
    /// Returns an error if any dependency edge is inconsistent.
    pub fn topo_order(&self) -> Result<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        for t in &self.tasks {
            for d in &t.deps {
                if d.0 as usize >= n || *d == t.id {
                    return Err(Error::sim(format!("bad dependency {d:?} on {:?}", t.id)));
                }
                indeg[t.id.0 as usize] += 1;
                out[d.0 as usize].push(t.id.0);
            }
        }
        let mut q: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = q.pop_front() {
            order.push(TaskId(i));
            for &s in &out[i as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    q.push_back(s);
                }
            }
        }
        if order.len() != n {
            return Err(Error::sim("dependency cycle in task graph"));
        }
        Ok(order)
    }

    /// The dependency of `id` with primitive `want`, looking through
    /// zero-cost barriers: depth-first over direct dependencies,
    /// descending only into `Barrier`s. This is how every executor
    /// (interpreter, runtime) and the plan verifier resolve which
    /// task's output a task consumes.
    pub fn find_dep(&self, id: TaskId, want: Primitive) -> Option<TaskId> {
        let mut stack: Vec<TaskId> = self.task(id).deps.clone();
        while let Some(d) = stack.pop() {
            let dt = self.task(d);
            if dt.prim == want {
                return Some(d);
            }
            if dt.prim == Primitive::Barrier {
                stack.extend(dt.deps.iter().copied());
            }
        }
        None
    }

    /// Sync completion tasks: the `Update` (or final `Merge` for the
    /// chunk owner) whose completion marks a gradient fully
    /// synchronized on a node. Used by the executor to compute
    /// per-gradient finish times.
    pub fn is_completion(&self, t: &TaskNode) -> bool {
        t.prim == Primitive::Update
    }
}

/// Convenience constructor for [`TaskNode`] with defaults.
pub fn task(node: usize, prim: Primitive, chunk: ChunkId) -> TaskNode {
    TaskNode {
        id: TaskId(u32::MAX),
        node,
        prim,
        chunk,
        bytes_raw: 0,
        bytes_wire: 0,
        peer: None,
        send_src: SendSrc::Raw,
        deps: Vec::new(),
        earliest_ns: 0,
        at_aggregator: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> ChunkId {
        ChunkId { grad: 0, part: 0 }
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        let b = g.add(TaskNode {
            deps: vec![a],
            ..task(0, Primitive::Encode, chunk())
        });
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, vec![a]);
    }

    #[test]
    fn topo_order_is_valid() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        let b = g.add(TaskNode {
            deps: vec![a],
            ..task(0, Primitive::Encode, chunk())
        });
        let c = g.add(TaskNode {
            deps: vec![a, b],
            ..task(0, Primitive::Merge, chunk())
        });
        let order = g.topo_order().unwrap();
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(b) < pos(c));
    }

    #[test]
    fn task_mut_allows_defect_injection() {
        let mut g = TaskGraph::new();
        let a = g.add(task(0, Primitive::Source, chunk()));
        g.task_mut(a).node = 3;
        assert_eq!(g.task(a).node, 3);
    }

    #[test]
    fn uninstalled_verifier_is_a_no_op() {
        let g = TaskGraph::new();
        assert!(run_debug_verifier(&g, 1).is_ok());
    }

    #[test]
    fn compute_vs_communication_queues() {
        assert!(Primitive::Encode.is_compute());
        assert!(Primitive::Merge.is_compute());
        assert!(!Primitive::Send.is_compute());
        assert!(!Primitive::Recv.is_compute());
        assert!(!Primitive::Source.is_compute());
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(TaskNode {
            deps: vec![TaskId(7)],
            ..task(0, Primitive::Encode, chunk())
        });
    }
}
