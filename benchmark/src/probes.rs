//! Layer probes: timed calls into the public API of `compress`,
//! `fabric` and `core` at the workload's own shapes. Only stable
//! surfaces are used — `Compressor`, `WireMsg for Msg`,
//! `Link`/`connect_mesh` and `Strategy::build` — so the probes do not
//! depend on how the fabric frames or retransmits internally.

use crate::median;
use crate::spans::Recorder;
use crate::workload::Workload;
use hipress::casync::{Primitive, TaskGraph, TaskId};
use hipress::fabric::tcp::{connect_mesh, MeshConfig};
use hipress::fabric::{Link, WireMsg};
use hipress::runtime::{Msg, Payload};
use hipress::tensor::Tensor;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Codec throughput on the chunks rank 0 encodes in one iteration.
pub struct CompressProbe {
    pub encode_gbps: f64,
    pub decode_gbps: f64,
    /// Raw bytes per encoded byte; deterministic for every codec here.
    pub ratio: f64,
}

/// Returns `None` when the workload has no codec.
pub fn compress(
    w: &Workload,
    graph: &TaskGraph,
    grads: &[Tensor],
    rec: &mut Recorder,
    budget: Duration,
) -> Option<CompressProbe> {
    let codec = w.algorithm.build()?;
    // The real chunk shapes: every Encode task on rank 0, with its
    // gradient's leading elements as data.
    let chunks: Vec<&[f32]> = graph
        .tasks()
        .iter()
        .filter(|t| t.node == 0 && t.prim == Primitive::Encode)
        .map(|t| &grads[t.chunk.grad as usize].as_slice()[..(t.bytes_raw / 4) as usize])
        .collect();
    assert!(
        !chunks.is_empty(),
        "a compressed workload encodes on rank 0"
    );
    let raw: u64 = chunks.iter().map(|c| c.len() as u64 * 4).sum();
    let (mut wire, mut enc_ns, mut dec_ns, mut passes) = (0u64, 0u128, 0u128, 0u64);
    let deadline = Instant::now() + budget;
    // One span per pass over the chunks for each direction, so that
    // tiny chunks do not flood the recorder.
    while passes < 2 || Instant::now() < deadline {
        let id = rec.enter("compress", "encode", None);
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| codec.encode(black_box(c), i as u64))
            .collect();
        enc_ns += t.elapsed().as_nanos();
        wire = encoded.iter().map(|e| e.len() as u64).sum();
        rec.exit(id, vec![("bytes", raw), ("bytes_wire", wire)]);
        let id = rec.enter("compress", "decode", None);
        let t = Instant::now();
        for e in &encoded {
            black_box(codec.decode(black_box(e)).expect("codec round trip"));
        }
        dec_ns += t.elapsed().as_nanos();
        rec.exit(id, vec![("bytes", raw)]);
        passes += 1;
    }
    let moved = (raw * passes) as f64;
    Some(CompressProbe {
        encode_gbps: moved / enc_ns as f64,
        decode_gbps: moved / dec_ns as f64,
        ratio: raw as f64 / wire as f64,
    })
}

/// Message serialization and loopback link speed at the workload's
/// largest per-send payload.
pub struct FabricProbe {
    pub msg_encode_gbps: f64,
    pub msg_decode_gbps: f64,
    pub link_gbps: f64,
    pub link_rtt_us_p50: f64,
}

/// Marks on `Msg::Done::iter` for the probe's own little protocol.
const BULK: u32 = 0;
const BULK_END: u32 = 1;
const PING: u32 = 2;
/// Bytes one bulk pass moves, so small payloads still send many frames.
const BULK_BYTES: u64 = 32 << 20;
/// Bytes of payload one timed batch of message (de)serializations covers.
const BATCH_BYTES: u64 = 8 << 20;
const RTT_SAMPLES: usize = 1000;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

pub fn fabric(
    graph: &TaskGraph,
    grads: &[Tensor],
    rec: &mut Recorder,
    budget: Duration,
) -> Result<FabricProbe, String> {
    let size = graph
        .tasks()
        .iter()
        .filter(|t| t.prim == Primitive::Send)
        .map(|t| t.bytes_wire)
        .max()
        .ok_or("the graph sends nothing")?;
    let compressed = graph.tasks().iter().any(|t| t.prim == Primitive::Encode);
    let payload = if compressed {
        Payload::Compressed((0..size).map(|i| (i * 131 % 251) as u8).collect())
    } else {
        let flat = grads.iter().flat_map(|t| t.as_slice().iter().copied());
        Payload::Raw(flat.cycle().take((size / 4) as usize).collect())
    };
    let msg = Msg::Done {
        task: TaskId(1),
        payload: Some(Arc::new(payload)),
        iter: BULK,
    };

    // Calls are timed in batches of about BATCH_BYTES, one span each.
    let batch = (BATCH_BYTES / size).max(1);
    let encoded = msg.to_bytes();
    let (mut enc_ns, mut dec_ns, mut reps) = (0u128, 0u128, 0u64);
    let deadline = Instant::now() + budget / 3;
    while reps < 3 * batch || Instant::now() < deadline {
        let id = rec.enter("fabric", "msg_encode", None);
        let t = Instant::now();
        for _ in 0..batch {
            black_box(black_box(&msg).to_bytes());
        }
        enc_ns += t.elapsed().as_nanos();
        rec.exit(id, vec![("bytes", batch * size)]);
        let id = rec.enter("fabric", "msg_decode", None);
        let t = Instant::now();
        for _ in 0..batch {
            black_box(Msg::from_bytes(black_box(&encoded)).map_err(|e| e.to_string())?);
        }
        dec_ns += t.elapsed().as_nanos();
        rec.exit(id, vec![("bytes", batch * size)]);
        reps += batch;
    }
    let moved = (size * reps) as f64;
    let (link_gbps, link_rtt_us_p50) = link(&msg, size, rec, budget * 2 / 3)?;
    Ok(FabricProbe {
        msg_encode_gbps: moved / enc_ns as f64,
        msg_decode_gbps: moved / dec_ns as f64,
        link_gbps,
        link_rtt_us_p50,
    })
}

fn done(iter: u32) -> Msg {
    Msg::Done {
        task: TaskId(0),
        payload: None,
        iter,
    }
}

fn recv(link: &mut impl Link<Msg = Msg>) -> Result<Msg, String> {
    link.recv_timeout(RECV_TIMEOUT)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "fabric probe: peer went silent".to_string())
}

/// Rank 1 of the probe pair: answers each bulk pass once it has
/// arrived, echoes pings, and stops on `Abort`.
fn responder(mut link: impl Link<Msg = Msg>, done_with_link: &Barrier) -> Result<(), String> {
    let outcome = loop {
        match recv(&mut link) {
            Ok(Msg::Done { iter: BULK, .. }) => {}
            Ok(Msg::Done { iter, .. }) => {
                if let Err(e) = link.send(0, done(iter)) {
                    break Err(e.to_string());
                }
            }
            Ok(_) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    // Dropping a link shuts its sockets; hold it until both sides
    // are finished so neither sees the other vanish mid-exchange.
    done_with_link.wait();
    outcome
}

/// Bulk throughput (GB/s) and small-message round trip (µs) over a
/// two-endpoint loopback mesh.
fn link(msg: &Msg, size: u64, rec: &mut Recorder, budget: Duration) -> Result<(f64, f64), String> {
    let bind = || -> Result<(TcpListener, SocketAddr), String> {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let a = l.local_addr().map_err(|e| e.to_string())?;
        Ok((l, a))
    };
    let (l0, a0) = bind()?;
    let (l1, a1) = bind()?;
    let addrs = vec![a0, a1];
    let barrier = Arc::new(Barrier::new(2));
    let peer = {
        let addrs = addrs.clone();
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || -> Result<(), String> {
            match connect_mesh::<Msg>(1, 2, l1, &addrs, &MeshConfig::default()) {
                Ok(link) => responder(link, &barrier),
                Err(e) => {
                    barrier.wait();
                    Err(e.to_string())
                }
            }
        })
    };
    let id = rec.enter("fabric", "connect", None);
    let mine = connect_mesh::<Msg>(0, 2, l0, &addrs, &MeshConfig::default());
    rec.exit(id, Vec::new());
    let measured = match mine {
        Ok(mut link) => {
            let out = drive(&mut link, msg, size, rec, budget);
            let _ = link.send(1, Msg::Abort);
            barrier.wait();
            out
        }
        Err(e) => {
            barrier.wait();
            Err(e.to_string())
        }
    };
    let answered = peer.join().map_err(|_| "fabric probe peer panicked")?;
    let measured = measured?;
    answered?;
    Ok(measured)
}

fn drive(
    link: &mut impl Link<Msg = Msg>,
    msg: &Msg,
    size: u64,
    rec: &mut Recorder,
    budget: Duration,
) -> Result<(f64, f64), String> {
    let per_pass = (BULK_BYTES / size).max(1);
    let (mut bytes, mut ns, mut passes) = (0u64, 0u128, 0);
    let deadline = Instant::now() + budget;
    while passes < 2 || Instant::now() < deadline {
        let id = rec.enter("fabric", "link_bulk", None);
        let t = Instant::now();
        for _ in 0..per_pass {
            link.send(1, msg.clone()).map_err(|e| e.to_string())?;
        }
        link.send(1, done(BULK_END)).map_err(|e| e.to_string())?;
        recv(link)?;
        ns += t.elapsed().as_nanos();
        rec.exit(id, vec![("bytes", per_pass * size)]);
        bytes += per_pass * size;
        passes += 1;
    }
    let mut rtts = Vec::with_capacity(RTT_SAMPLES);
    let id = rec.enter("fabric", "link_rtt", None);
    for _ in 0..RTT_SAMPLES {
        let t = Instant::now();
        link.send(1, done(PING)).map_err(|e| e.to_string())?;
        recv(link)?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    rec.exit(id, vec![("round_trips", RTT_SAMPLES as u64)]);
    let rtt = median(&rtts).expect("at least one round trip");
    Ok((bytes as f64 / ns as f64, rtt))
}

/// `Strategy::build` on the workload's iteration spec.
pub struct CoreProbe {
    pub graph_build_ms: f64,
    pub tasks: usize,
}

/// Builds are timed in batches of at least this long, one span each;
/// the probe reports the median of the batches' mean build times.
const BUILD_BATCH: Duration = Duration::from_millis(1);

pub fn core(w: &Workload, rec: &mut Recorder, budget: Duration) -> Result<CoreProbe, String> {
    let spec = w.iteration_spec();
    let cluster = w.cluster();
    let mut means = Vec::new();
    let mut tasks = 0;
    let deadline = Instant::now() + budget;
    while means.len() < 5 || Instant::now() < deadline {
        let id = rec.enter("core", "strategy_build", None);
        let t = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || t.elapsed() < BUILD_BATCH {
            let graph = w
                .strategy
                .build(&cluster, &spec)
                .map_err(|e| e.to_string())?;
            tasks = graph.len();
            black_box(graph);
            builds += 1;
        }
        means.push(t.elapsed().as_nanos() as f64 / 1e6 / f64::from(builds));
        rec.exit(id, vec![("builds", u64::from(builds))]);
    }
    Ok(CoreProbe {
        graph_build_ms: median(&means).expect("at least one build"),
        tasks,
    })
}
