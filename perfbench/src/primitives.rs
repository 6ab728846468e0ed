//! The paper's Table 1 on the native backend: the cost of each primitive
//! a round trip is built from, each timed by direct calls to one public
//! function with nothing else running.
//!
//! Each figure is the median over batches of the mean per-operation time
//! within a batch, so one preempted batch does not move it.

use crate::host::now_ns;
use crate::stats::median;
use std::hint::black_box;
use std::sync::Arc;
use usipc::sem::FutexSem;
use usipc::telemetry::Role;
use usipc::{
    Channel, ChannelConfig, Message, MetricsSnapshot, MsgSlot, NativeConfig, NativeOs, QueueKind,
    TelemetryPlane,
};
use usipc_shm::{ShmArena, SlotPool};

const BATCHES: usize = 15;

/// Median over [`BATCHES`] of the per-op time of `ops` calls to `op`.
fn per_op_ns(ops: u64, mut op: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..ops {
                op();
            }
            (now_ns() - t0) as f64 / ops as f64
        })
        .collect();
    median(&per_batch)
}

/// One enqueue plus one dequeue on a channel's receive queue with no
/// peer, on the given queue kind.
fn queue_enq_deq_ns(kind: QueueKind) -> f64 {
    let ch = Channel::create(&ChannelConfig::new(1).with_queue_kind(kind))
        .expect("arena sized from its config");
    let nos = NativeOs::new(NativeConfig::for_clients(1).without_metrics());
    let os = nos.task(1);
    let q = ch.receive_queue();
    let m = Message::echo(0, 1.0);
    per_op_ns(20_000, || {
        assert!(
            q.try_enqueue(&os, black_box(m)),
            "queue with no peer filled up"
        );
        black_box(q.try_dequeue(&os).expect("just enqueued"));
    })
}

/// The `awake` test-and-set.
fn tas_ns() -> f64 {
    let ch = Channel::create(&ChannelConfig::new(1)).expect("arena sized from its config");
    let nos = NativeOs::new(NativeConfig::for_clients(1).without_metrics());
    let os = nos.task(1);
    let q = ch.receive_queue();
    per_op_ns(50_000, || {
        black_box(q.tas_awake(&os));
    })
}

/// One slot-pool allocation plus its free.
fn pool_alloc_free_ns() -> f64 {
    let arena = ShmArena::new(SlotPool::<MsgSlot>::bytes_needed(64)).expect("small arena");
    let pool = SlotPool::create(&arena, 64, |_| MsgSlot::default()).expect("arena sized for it");
    per_op_ns(50_000, || {
        let slot = pool.alloc(&arena).expect("pool has free slots");
        pool.free(&arena, black_box(slot));
    })
}

/// An uncontended `V` then `P`: the semaphore's user-space fast path.
fn sem_fast_vp_ns() -> f64 {
    let sem = FutexSem::new(0);
    per_op_ns(50_000, || {
        sem.v();
        sem.p();
    })
}

/// One round trip between two threads over two semaphores: V the peer's,
/// P our own.
fn futex_pingpong_us() -> f64 {
    const ROUNDS: u64 = 2_000;
    let sems = Arc::new([FutexSem::new(0), FutexSem::new(0)]);
    let peer = {
        let sems = Arc::clone(&sems);
        std::thread::spawn(move || {
            for _ in 0..ROUNDS * BATCHES as u64 {
                sems[0].p();
                sems[1].v();
            }
        })
    };
    let per_round = per_op_ns(ROUNDS, || {
        sems[0].v();
        sems[1].p();
    });
    peer.join().expect("ping-pong peer panicked");
    per_round / 1e3
}

/// Telemetry publish and idle read (no writer running) of one slot.
fn telemetry_ns() -> (f64, f64) {
    let arena = Arc::new(
        ShmArena::new(TelemetryPlane::bytes_needed(1, 0, 0)).expect("small telemetry arena"),
    );
    let plane = TelemetryPlane::create_in(&arena, 1, 0, 0).expect("arena sized for the plane");
    let writer = plane.writer(0, 0, Role::Shard);
    let snap = MetricsSnapshot::default();
    let publish = per_op_ns(20_000, || writer.publish(black_box(&snap)));
    let read = per_op_ns(20_000, || {
        black_box(plane.read(0).expect("idle slot reads"));
    });
    (publish, read)
}

/// Every primitive, as (metric name, value, unit).
pub fn measure() -> Vec<(&'static str, f64, &'static str)> {
    let (publish, read) = telemetry_ns();
    vec![
        (
            "queue.two_lock.enq_deq_ns",
            queue_enq_deq_ns(QueueKind::TwoLock),
            "ns",
        ),
        (
            "queue.ring.enq_deq_ns",
            queue_enq_deq_ns(QueueKind::Ring),
            "ns",
        ),
        ("protocol.tas_ns", tas_ns(), "ns"),
        ("shm.pool.alloc_free_ns", pool_alloc_free_ns(), "ns"),
        ("sem.fast_vp_ns", sem_fast_vp_ns(), "ns"),
        ("wake.futex_pingpong_us", futex_pingpong_us(), "us"),
        ("telemetry.publish_ns", publish, "ns"),
        ("telemetry.read_idle_ns", read, "ns"),
    ]
}
