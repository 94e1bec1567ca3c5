//! The three benchmark workloads, each defined beside the reason it
//! was chosen, and the seeded gradients they synchronize.

use hipress::casync::{ClusterConfig, CompressionSpec, GradPlan, IterationSpec, SyncGradient};
use hipress::compress::Algorithm;
use hipress::prelude::{Backend, HiPress, ProcessConfig, Strategy};
use hipress::tensor::synth::{generate, GradientShape};
use hipress::tensor::Tensor;
use std::time::Duration;

/// Every workload runs two ranks: the host the benchmark was written
/// for has two cores, so each rank gets one.
pub const RANKS: usize = 2;

/// A hung process job fails after this long instead of stalling the
/// run: about twice the slowest healthy job (under 3 s). The
/// coordinator waits this long for each rank in turn, so a hang costs
/// about twice this plus the reaping grace.
const PROCESS_RUN_TIMEOUT: Duration = Duration::from_secs(6);

/// Elements per tensor in the fixed-cost job that `setup_s` times.
pub const SETUP_ELEMS: usize = 1024;

/// One benchmark workload: a fixed synchronization job shape.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence on which layer this workload stresses.
    pub why: &'static str,
    pub backend: Backend,
    pub strategy: Strategy,
    pub algorithm: Algorithm,
    pub partitions: usize,
    /// Elements of each gradient tensor every rank holds.
    pub tensor_elems: Vec<usize>,
    /// Iterations per `sync()` call; above 1 the job is pipelined.
    pub iterations: u32,
    pub window: u32,
}

/// One transformer block's parameter tensors: QKV, QKV bias, MLP,
/// MLP bias, layer norm.
const BLOCK: [usize; 5] = [36864, 768, 147456, 3072, 768];

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "ring-onebit-proc",
            why: "codec-bound: onebit encode/decode dominates rank busy time and 1/32 of \
                  the bytes reach the wire, so codec and dataflow-copy work shows and \
                  framing/transport barely does",
            backend: Backend::Processes(RANKS),
            strategy: Strategy::CaSyncRing,
            algorithm: Algorithm::OneBit,
            partitions: 2,
            tensor_elems: vec![1 << 20],
            iterations: 32,
            window: 4,
        },
        Workload {
            name: "ring-raw-proc",
            why: "transport-bound: no codec work, every byte goes through TLV framing, \
                  checksum, loopback TCP and the frame reliability layer; a codec change \
                  must not move it",
            backend: Backend::Processes(RANKS),
            strategy: Strategy::CaSyncRing,
            algorithm: Algorithm::None,
            // 1 MiB per rank. At 16 MiB per rank, 16-iteration jobs
            // deadlock in the TCP fabric at random (see README.md): about
            // one in 20 with 8 MiB frames and one in 400 even with 2 MiB
            // frames, so a run's failure count would not repeat. None did
            // in 2631 such jobs at this size.
            partitions: 2,
            tensor_elems: vec![1 << 18],
            iterations: 48,
            window: 4,
        },
        Workload {
            name: "ps-dgc-threads",
            why: "scheduling-bound: every unpipelined step rebuilds the graph and routes \
                  hundreds of small top-k messages through batched codec launches over \
                  in-process channels, with no framing or TCP",
            backend: Backend::Threads(RANKS),
            strategy: Strategy::CaSyncPs,
            algorithm: Algorithm::Dgc { rate: 0.01 },
            partitions: 1,
            tensor_elems: BLOCK
                .iter()
                .copied()
                .cycle()
                .take(12 * BLOCK.len())
                .collect(),
            iterations: 1,
            window: 1,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The measured job: the workload's backend, shape and codec.
    /// Process workers run this very executable, which dispatches the
    /// `node` subcommand, so they are the build being measured.
    pub fn job(&self, seed: u64) -> HiPress {
        self.job_on(self.backend, seed)
            .iterations(self.iterations)
            .pipeline_window(self.window)
    }

    /// The fixed-cost job `setup_s` times: same backend, ranks,
    /// strategy, codec and tensor count, one iteration.
    pub fn setup_job(&self, seed: u64) -> HiPress {
        self.job_on(self.backend, seed)
    }

    /// The reference the timed jobs must match bit for bit: the
    /// interpreter for unpipelined jobs, the thread engine (which the
    /// repository cross-validates against the interpreter) for
    /// pipelined ones, which the interpreter cannot run.
    pub fn reference_job(&self, seed: u64) -> HiPress {
        if self.iterations > 1 || self.window > 1 {
            self.job_on(Backend::Threads(RANKS), seed)
                .iterations(self.iterations)
                .pipeline_window(self.window)
        } else {
            self.job_on(Backend::Simulator, seed)
        }
    }

    fn job_on(&self, backend: Backend, seed: u64) -> HiPress {
        let job = HiPress::new(self.strategy)
            .algorithm(self.algorithm)
            .partitions(self.partitions)
            .seed(seed)
            .backend(backend);
        if matches!(backend, Backend::Processes(_)) {
            job.process_config(ProcessConfig {
                binary: Some(std::env::current_exe().expect("benchmark executable path")),
                run_timeout: PROCESS_RUN_TIMEOUT,
                ..ProcessConfig::default()
            })
        } else {
            job
        }
    }

    /// Each rank's gradients, generated from `seed` alone.
    pub fn gradients(&self, seed: u64) -> Vec<Vec<Tensor>> {
        grads_of(&self.tensor_elems, seed)
    }

    /// The fixed-cost job's gradients: the same tensor count at
    /// [`SETUP_ELEMS`] elements each.
    pub fn setup_gradients(&self, seed: u64) -> Vec<Vec<Tensor>> {
        grads_of(&vec![SETUP_ELEMS; self.tensor_elems.len()], seed)
    }

    /// Uncompressed gradient bytes one rank synchronizes per iteration.
    pub fn grad_bytes(&self) -> u64 {
        self.tensor_elems.iter().map(|&n| n as u64 * 4).sum()
    }

    /// The iteration spec the facade derives for this workload's
    /// tensors, for timing `Strategy::build` on its own.
    pub fn iteration_spec(&self) -> IterationSpec {
        let compressor = self.algorithm.build();
        IterationSpec {
            gradients: self
                .tensor_elems
                .iter()
                .enumerate()
                .map(|(g, &n)| SyncGradient {
                    name: format!("g{g}"),
                    bytes: n as u64 * 4,
                    ready_offset_ns: 0,
                    plan: GradPlan {
                        compress: compressor.is_some(),
                        partitions: self.partitions,
                    },
                })
                .collect(),
            compression: compressor.as_deref().map(CompressionSpec::of),
        }
    }

    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::ec2(RANKS)
    }

    pub fn backend_label(&self) -> &'static str {
        match self.backend {
            Backend::Simulator => "simulator",
            Backend::Threads(_) => "threads",
            Backend::Processes(_) => "processes",
        }
    }
}

fn grads_of(elems: &[usize], seed: u64) -> Vec<Vec<Tensor>> {
    (0..RANKS as u64)
        .map(|rank| {
            elems
                .iter()
                .enumerate()
                .map(|(t, &n)| {
                    let stream = seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(rank << 32 | t as u64);
                    generate(n, GradientShape::default_dnn(), stream)
                })
                .collect()
        })
        .collect()
}
