//! Protocol-event metrics: lock-free per-endpoint counters and round-trip
//! latency sketches.
//!
//! The paper's entire argument is an *accounting* argument — BSW loses
//! because it pays "four system calls per round trip" (Fig. 6, Table 1),
//! BSLS wins because a well-chosen `MAX_SPIN` makes clients block only ~3 %
//! of the time (Fig. 10). This module makes that accounting live
//! instrumentation instead of hand-counting: every protocol-visible event
//! (queue ops, semaphore calls, yields, spins, blocks, stray wake-ups,
//! hand-offs) increments a `Relaxed` atomic counter on the endpoint's
//! [`EndpointMetrics`], and synchronous round trips feed a log-linear
//! latency sketch (the telemetry plane's [`SketchSnapshot`] cells).
//!
//! Cost model: recording one event is a single uncontended `fetch_add`
//! with `Relaxed` ordering (one `lock xadd` on x86, no fence on ARM); when
//! metrics are disabled the sink is `None` and the entire path folds to a
//! branch on an `Option` discriminant. Counters are per-*task*, so there
//! is no cross-thread cache-line ping-pong on the hot path.
//!
//! The cheap read side is [`MetricsSnapshot`]: a plain-`u64` copy of the
//! counters at an instant, with [`MetricsSnapshot::diff`] for windowed
//! accounting (e.g. "system calls per round trip over this barrage" =
//! `end.diff(start).sem_ops() / messages`).

use crate::telemetry::{sketch_cell, SketchSnapshot, N_SKETCH_CELLS};
use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A protocol-visible event, recorded through
/// [`OsServices::record`](crate::platform::OsServices::record).
///
/// The first four mirror the [`Cost`](crate::platform::Cost) classes the
/// protocols already charge to virtual time; the rest are the sleep/wake-up
/// events the paper's analysis counts by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProtoEvent {
    /// One user-level enqueue or dequeue *attempt* (`Cost::QueueOp`).
    QueueOp,
    /// One test-and-set (or store) on an `awake` flag (`Cost::Tas`).
    TasOp,
    /// One `empty(Q)` check in a limited-spin loop (`Cost::Poll`).
    PollCheck,
    /// One request processed by a server loop (`Cost::Request`).
    RequestServed,
    /// A successful enqueue onto a shared queue.
    Enqueue,
    /// A successful dequeue from a shared queue.
    Dequeue,
    /// A counting-semaphore `P` system call.
    SemP,
    /// A counting-semaphore `V` system call.
    SemV,
    /// A `sched_yield` system call.
    Yield,
    /// A `handoff` system call (or its yield fallback).
    Handoff,
    /// One `busy_wait`/`poll_queue` pacing step (a yield on uniprocessors,
    /// a spin step on multiprocessors: the modelled 25 µs delay in the
    /// simulator, natively a yield, then a spin to the task's next 3 µs clock boundary).
    SpinIteration,
    /// A queue-full back-off (`sleep(1)` in the paper).
    QueueFullBackoff,
    /// The consumer committed to sleep: the `P` on the empty re-check of
    /// the Fig. 5/7/9 wait loop. `blocks_entered / dequeues` is the
    /// fall-through rate of §4.2 (Fig. 10's "blocked only 3 % of the
    /// time").
    BlockEntered,
    /// A stray wake-up absorbed by the `tas`-guarded `P` (interleaving 3
    /// of Fig. 4 — the credit that overflowed the authors' first version).
    StrayWakeupAbsorbed,
    /// A request dropped because its client-supplied `channel` named no
    /// reply queue. Shared memory is a trust boundary: a buggy or hostile
    /// client must not be able to crash the server.
    MalformedRequest,
    /// An *actual* host-kernel sleep inside a semaphore `P` (a `futex_wait`
    /// on the native futex path; a condvar wait on the portable fallback).
    /// Zero on an uncontended `P`: the credit was taken entirely in user
    /// space. Distinct from [`ProtoEvent::SemP`], which keeps the paper's
    /// protocol-level "system calls per round trip" accounting; only the
    /// native backend emits this.
    SemKernelWait,
    /// An *actual* host-kernel wake inside a semaphore `V` (`futex_wake` /
    /// condvar notify with a sleeper registered). Zero on an uncontended
    /// `V`. Native backend only; see [`ProtoEvent::SemKernelWait`].
    SemKernelWake,
    /// A deadline-aware wait expired without taking a credit (a
    /// `sem_p_deadline` that returned `false`). The fault layer's
    /// first-line detection signal.
    TimedOut,
    /// A fault-injection plan fired (task killed, wake-up dropped, or
    /// delay inserted) — emitted by the harness, never by real protocols.
    FaultInjected,
    /// A survivor detected its peer dead (liveness word flipped, or a
    /// deadline expired against a dead peer).
    PeerDeathDetected,
    /// A channel queue was poisoned (sticky one-way flag set, waiters
    /// broadcast-woken, in-flight slots drained).
    ChannelPoisoned,
    /// A producer's `V` rang a WaitSet doorbell: the source made a
    /// quiescent→ready edge *and* won the `pending` latch, so a real
    /// semaphore `V` was issued. `doorbells_rung / waitset_wakes` is the
    /// doorbell budget the WaitSet design pins at ≤ 1 (+1 for the last
    /// un-consumed credit).
    DoorbellRung,
    /// A producer's notification was absorbed without a semaphore `V`:
    /// either its source was already ready (level held high) or another
    /// producer already rang the doorbell for this wake cycle. The
    /// coalescing win of the edge-triggered design.
    DoorbellCoalesced,
    /// A WaitSet waiter's doorbell `P` completed (one server wake-up
    /// serving any number of ready sources). The denominator of the
    /// doorbell budget.
    WaitSetWake,
    /// A shard worker stole a ready source from an overloaded sibling
    /// shard and drained it locally.
    WorkStolen,
    /// A message pool slot became permanently unreachable while draining a
    /// poisoned queue: either the drain stopped at a lock a dead process
    /// abandoned (two-lock queue — everything still queued behind it is
    /// stranded, one event per stranded message), or a ring hole left by a
    /// producer that died between claim and publish was reclaimed with its
    /// slot lost. Segment attrition, surfaced so `usipc-top` shows it
    /// instead of hiding it. Advisory upper bound: in the rare
    /// reclaim-vs-slow-producer race the producer frees its own slot after
    /// the event was already counted.
    SlotLeaked,
    /// A `call_retry` attempt was (re)issued after a timeout: the bounded
    /// jittered-backoff layer went around once more. First attempts are
    /// not counted — this measures *extra* work caused by loss/slowness.
    RetryAttempted,
    /// A `call_retry` ran out of attempts and surfaced
    /// [`RetriesExhausted`](crate::IpcError::RetriesExhausted).
    RetryExhausted,
    /// One repair performed by an arena fsck pass (lock broken, tail or
    /// count rewritten, node reclaimed, waitset word rebuilt, …). Zero on
    /// a clean segment — the idempotence property, live.
    FsckRepair,
    /// A stray semaphore credit absorbed by the fsck credit-conservation
    /// audit (a wakeup a corpse posted, or was posted to the corpse, that
    /// no live waiter should ever consume).
    CreditAbsorbed,
    /// A ring hole (or stranded sub-cursor slot) retired by recovery —
    /// fsck's hole audit or the live `reclaim_stuck` path during takeover.
    HoleRetired,
}

/// Number of distinct [`ProtoEvent`] kinds.
pub const N_EVENTS: usize = 31;

impl ProtoEvent {
    /// Every event kind, in discriminant order (`ALL[e as usize] == e`).
    pub const ALL: [ProtoEvent; N_EVENTS] = [
        ProtoEvent::QueueOp,
        ProtoEvent::TasOp,
        ProtoEvent::PollCheck,
        ProtoEvent::RequestServed,
        ProtoEvent::Enqueue,
        ProtoEvent::Dequeue,
        ProtoEvent::SemP,
        ProtoEvent::SemV,
        ProtoEvent::Yield,
        ProtoEvent::Handoff,
        ProtoEvent::SpinIteration,
        ProtoEvent::QueueFullBackoff,
        ProtoEvent::BlockEntered,
        ProtoEvent::StrayWakeupAbsorbed,
        ProtoEvent::MalformedRequest,
        // New kinds append here: the trace codec encodes events by index,
        // so reordering would silently relabel old traces.
        ProtoEvent::SemKernelWait,
        ProtoEvent::SemKernelWake,
        ProtoEvent::TimedOut,
        ProtoEvent::FaultInjected,
        ProtoEvent::PeerDeathDetected,
        ProtoEvent::ChannelPoisoned,
        ProtoEvent::DoorbellRung,
        ProtoEvent::DoorbellCoalesced,
        ProtoEvent::WaitSetWake,
        ProtoEvent::WorkStolen,
        ProtoEvent::SlotLeaked,
        ProtoEvent::RetryAttempted,
        ProtoEvent::RetryExhausted,
        ProtoEvent::FsckRepair,
        ProtoEvent::CreditAbsorbed,
        ProtoEvent::HoleRetired,
    ];

    /// Inverse of `e as usize` (used by the trace codec); `None` when `i`
    /// names no event.
    pub fn from_index(i: usize) -> Option<ProtoEvent> {
        Self::ALL.get(i).copied()
    }

    /// Whether this event is a scheduler-visible kernel crossing (the
    /// currency of [`MetricsSnapshot::kernel_crossings`]).
    ///
    /// Deliberately counts the *protocol-level* crossings (`SemP`/`SemV`
    /// model the paper's `semop` calls) and not `SemKernelWait`/`Wake`:
    /// those measure how often the futex implementation actually entered
    /// the host kernel, a property of the semaphore, not the protocol.
    pub fn is_kernel_crossing(self) -> bool {
        matches!(
            self,
            ProtoEvent::SemP
                | ProtoEvent::SemV
                | ProtoEvent::Yield
                | ProtoEvent::Handoff
                | ProtoEvent::QueueFullBackoff
        )
    }
}

const EVENTS: [ProtoEvent; N_EVENTS] = ProtoEvent::ALL;

/// Lock-free event counters and a round-trip latency sketch for one
/// endpoint (task). All writes are `Relaxed` `fetch_add`s; reads produce a
/// [`MetricsSnapshot`] and a [`SketchSnapshot`].
///
/// The latency cells are the same 34×4 log-linear cells as the telemetry
/// plane's sketch, so every latency read in the crate has one resolution
/// (within [`SKETCH_MAX_RELATIVE_ERROR`](crate::telemetry::SKETCH_MAX_RELATIVE_ERROR)).
#[derive(Debug)]
pub struct EndpointMetrics {
    counters: [AtomicU64; N_EVENTS],
    latency: [AtomicU64; N_SKETCH_CELLS],
    latency_sum: AtomicU64,
}

impl Default for EndpointMetrics {
    fn default() -> Self {
        EndpointMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_sum: AtomicU64::new(0),
        }
    }
}

impl EndpointMetrics {
    /// A fresh all-zero sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event (a single `Relaxed` `fetch_add`).
    #[inline]
    pub fn record(&self, e: ProtoEvent) {
        self.counters[e as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a synchronous round-trip latency: two `Relaxed`
    /// `fetch_add`s (its cell and the sum); the count is derived from the
    /// cells at snapshot time.
    #[inline]
    pub fn record_latency_nanos(&self, nanos: u64) {
        self.latency[sketch_cell(nanos)].fetch_add(1, Ordering::Relaxed);
        self.latency_sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for &e in &EVENTS {
            *s.field_mut(e) = self.counters[e as usize].load(Ordering::Relaxed);
        }
        s
    }

    /// Point-in-time copy of the latency sketch.
    pub fn latency_snapshot(&self) -> SketchSnapshot {
        let mut s = SketchSnapshot {
            sum_nanos: self.latency_sum.load(Ordering::Relaxed),
            ..SketchSnapshot::default()
        };
        for (dst, src) in s.cells.iter_mut().zip(&self.latency) {
            *dst = src.load(Ordering::Relaxed);
        }
        s.count = s.cells.iter().sum();
        s
    }
}

/// Point-in-time copy of an endpoint's counters: plain `u64`s, `Copy`,
/// field-per-event. See [`ProtoEvent`] for what each field counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub queue_ops: u64,
    pub tas_ops: u64,
    pub poll_checks: u64,
    pub requests_served: u64,
    pub enqueues: u64,
    pub dequeues: u64,
    pub sem_p: u64,
    pub sem_v: u64,
    pub yields: u64,
    pub handoffs: u64,
    pub spin_iterations: u64,
    pub queue_full_backoffs: u64,
    pub blocks_entered: u64,
    pub stray_wakeups_absorbed: u64,
    pub malformed_requests: u64,
    pub sem_kernel_waits: u64,
    pub sem_kernel_wakes: u64,
    pub timed_out: u64,
    pub faults_injected: u64,
    pub peer_deaths_detected: u64,
    pub channels_poisoned: u64,
    pub doorbells_rung: u64,
    pub doorbells_coalesced: u64,
    pub waitset_wakes: u64,
    pub work_stolen: u64,
    pub slots_leaked: u64,
    pub retries_attempted: u64,
    pub retries_exhausted: u64,
    pub fsck_repairs: u64,
    pub credits_absorbed: u64,
    pub holes_retired: u64,
}

impl MetricsSnapshot {
    fn field_mut(&mut self, e: ProtoEvent) -> &mut u64 {
        match e {
            ProtoEvent::QueueOp => &mut self.queue_ops,
            ProtoEvent::TasOp => &mut self.tas_ops,
            ProtoEvent::PollCheck => &mut self.poll_checks,
            ProtoEvent::RequestServed => &mut self.requests_served,
            ProtoEvent::Enqueue => &mut self.enqueues,
            ProtoEvent::Dequeue => &mut self.dequeues,
            ProtoEvent::SemP => &mut self.sem_p,
            ProtoEvent::SemV => &mut self.sem_v,
            ProtoEvent::Yield => &mut self.yields,
            ProtoEvent::Handoff => &mut self.handoffs,
            ProtoEvent::SpinIteration => &mut self.spin_iterations,
            ProtoEvent::QueueFullBackoff => &mut self.queue_full_backoffs,
            ProtoEvent::BlockEntered => &mut self.blocks_entered,
            ProtoEvent::StrayWakeupAbsorbed => &mut self.stray_wakeups_absorbed,
            ProtoEvent::MalformedRequest => &mut self.malformed_requests,
            ProtoEvent::SemKernelWait => &mut self.sem_kernel_waits,
            ProtoEvent::SemKernelWake => &mut self.sem_kernel_wakes,
            ProtoEvent::TimedOut => &mut self.timed_out,
            ProtoEvent::FaultInjected => &mut self.faults_injected,
            ProtoEvent::PeerDeathDetected => &mut self.peer_deaths_detected,
            ProtoEvent::ChannelPoisoned => &mut self.channels_poisoned,
            ProtoEvent::DoorbellRung => &mut self.doorbells_rung,
            ProtoEvent::DoorbellCoalesced => &mut self.doorbells_coalesced,
            ProtoEvent::WaitSetWake => &mut self.waitset_wakes,
            ProtoEvent::WorkStolen => &mut self.work_stolen,
            ProtoEvent::SlotLeaked => &mut self.slots_leaked,
            ProtoEvent::RetryAttempted => &mut self.retries_attempted,
            ProtoEvent::RetryExhausted => &mut self.retries_exhausted,
            ProtoEvent::FsckRepair => &mut self.fsck_repairs,
            ProtoEvent::CreditAbsorbed => &mut self.credits_absorbed,
            ProtoEvent::HoleRetired => &mut self.holes_retired,
        }
    }

    fn field(&self, e: ProtoEvent) -> u64 {
        match e {
            ProtoEvent::QueueOp => self.queue_ops,
            ProtoEvent::TasOp => self.tas_ops,
            ProtoEvent::PollCheck => self.poll_checks,
            ProtoEvent::RequestServed => self.requests_served,
            ProtoEvent::Enqueue => self.enqueues,
            ProtoEvent::Dequeue => self.dequeues,
            ProtoEvent::SemP => self.sem_p,
            ProtoEvent::SemV => self.sem_v,
            ProtoEvent::Yield => self.yields,
            ProtoEvent::Handoff => self.handoffs,
            ProtoEvent::SpinIteration => self.spin_iterations,
            ProtoEvent::QueueFullBackoff => self.queue_full_backoffs,
            ProtoEvent::BlockEntered => self.blocks_entered,
            ProtoEvent::StrayWakeupAbsorbed => self.stray_wakeups_absorbed,
            ProtoEvent::MalformedRequest => self.malformed_requests,
            ProtoEvent::SemKernelWait => self.sem_kernel_waits,
            ProtoEvent::SemKernelWake => self.sem_kernel_wakes,
            ProtoEvent::TimedOut => self.timed_out,
            ProtoEvent::FaultInjected => self.faults_injected,
            ProtoEvent::PeerDeathDetected => self.peer_deaths_detected,
            ProtoEvent::ChannelPoisoned => self.channels_poisoned,
            ProtoEvent::DoorbellRung => self.doorbells_rung,
            ProtoEvent::DoorbellCoalesced => self.doorbells_coalesced,
            ProtoEvent::WaitSetWake => self.waitset_wakes,
            ProtoEvent::WorkStolen => self.work_stolen,
            ProtoEvent::SlotLeaked => self.slots_leaked,
            ProtoEvent::RetryAttempted => self.retries_attempted,
            ProtoEvent::RetryExhausted => self.retries_exhausted,
            ProtoEvent::FsckRepair => self.fsck_repairs,
            ProtoEvent::CreditAbsorbed => self.credits_absorbed,
            ProtoEvent::HoleRetired => self.holes_retired,
        }
    }

    /// `self - earlier`, field-wise: the events of a measurement window.
    ///
    /// # Panics
    ///
    /// In debug builds, if `earlier` is not actually earlier (counters are
    /// monotone, so a negative delta is caller error).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for &e in &EVENTS {
            let (now, was) = (self.field(e), earlier.field(e));
            debug_assert!(now >= was, "snapshot diff went backwards for {e:?}");
            *out.field_mut(e) = now.wrapping_sub(was);
        }
        out
    }

    /// Field-wise sum (aggregating tasks).
    pub fn add(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for &e in &EVENTS {
            *out.field_mut(e) = self.field(e) + other.field(e);
        }
        out
    }

    /// The counters as a flat `[u64; N_EVENTS]`, indexed by
    /// `ProtoEvent as usize` — the transport form for carrying a snapshot
    /// through shared memory (a child process stores each element into an
    /// `AtomicU64` cell; the parent rebuilds with [`Self::from_array`]).
    pub fn to_array(&self) -> [u64; N_EVENTS] {
        let mut a = [0u64; N_EVENTS];
        for (i, &e) in EVENTS.iter().enumerate() {
            a[i] = self.field(e);
        }
        a
    }

    /// Inverse of [`Self::to_array`].
    pub fn from_array(a: &[u64; N_EVENTS]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (i, &e) in EVENTS.iter().enumerate() {
            *s.field_mut(e) = a[i];
        }
        s
    }

    /// Semaphore system calls (`P` + `V`) — the "four system calls per
    /// round trip" currency of Fig. 6.
    pub fn sem_ops(&self) -> u64 {
        self.sem_p + self.sem_v
    }

    /// All scheduler-visible kernel crossings: semaphore ops, yields,
    /// hand-offs and queue-full sleeps.
    pub fn kernel_crossings(&self) -> u64 {
        self.sem_ops() + self.yields + self.handoffs + self.queue_full_backoffs
    }

    /// Fraction of dequeues that committed to sleep first (the paper's
    /// §4.2 "percent of time the client blocked"); `NaN` with no dequeues.
    pub fn block_rate(&self) -> f64 {
        self.blocks_entered as f64 / self.dequeues as f64
    }
}

/// Per-task metrics sinks for one experiment: task id → shared
/// [`EndpointMetrics`]. The map is locked only at task registration;
/// recording never touches it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    tasks: Mutex<HashMap<u32, Arc<EndpointMetrics>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sink for `task_id`, created on first use.
    pub fn for_task(&self, task_id: u32) -> Arc<EndpointMetrics> {
        Arc::clone(self.tasks.lock().unwrap().entry(task_id).or_default())
    }

    /// Snapshot of one task's counters (zeros if the task never recorded).
    pub fn task_snapshot(&self, task_id: u32) -> MetricsSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .get(&task_id)
            .map(|m| m.snapshot())
            .unwrap_or_default()
    }

    /// Snapshot of one task's latency sketch.
    pub fn task_latency(&self, task_id: u32) -> SketchSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .get(&task_id)
            .map(|m| m.latency_snapshot())
            .unwrap_or_default()
    }

    /// Field-wise sum over every task matching `keep`.
    pub fn aggregate(&self, mut keep: impl FnMut(u32) -> bool) -> MetricsSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .iter()
            .filter(|(&id, _)| keep(id))
            .fold(MetricsSnapshot::default(), |acc, (_, m)| {
                acc.add(&m.snapshot())
            })
    }

    /// Merged latency sketch over every task matching `keep`.
    pub fn aggregate_latency(&self, mut keep: impl FnMut(u32) -> bool) -> SketchSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .iter()
            .filter(|(&id, _)| keep(id))
            .fold(SketchSnapshot::default(), |acc, (_, m)| {
                acc.merge(&m.latency_snapshot())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_roundtrip_covers_every_event() {
        let m = EndpointMetrics::new();
        for (i, &e) in EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.record(e);
            }
        }
        let s = m.snapshot();
        for (i, &e) in EVENTS.iter().enumerate() {
            assert_eq!(s.field(e), i as u64 + 1, "{e:?}");
        }
    }

    #[test]
    fn diff_is_windowed_accounting() {
        let m = EndpointMetrics::new();
        m.record(ProtoEvent::SemP);
        m.record(ProtoEvent::SemP);
        let start = m.snapshot();
        m.record(ProtoEvent::SemP);
        m.record(ProtoEvent::SemV);
        let window = m.snapshot().diff(&start);
        assert_eq!(window.sem_p, 1);
        assert_eq!(window.sem_v, 1);
        assert_eq!(window.sem_ops(), 2);
        assert_eq!(window.queue_ops, 0);
    }

    #[test]
    fn add_aggregates_tasks() {
        let a = MetricsSnapshot {
            sem_p: 3,
            yields: 1,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            sem_p: 2,
            handoffs: 4,
            ..Default::default()
        };
        let sum = a.add(&b);
        assert_eq!(sum.sem_p, 5);
        assert_eq!(sum.yields, 1);
        assert_eq!(sum.handoffs, 4);
        assert_eq!(sum.kernel_crossings(), 10);
    }

    #[test]
    fn latency_mean_and_quantiles() {
        let m = EndpointMetrics::new();
        for _ in 0..99 {
            m.record_latency_nanos(1_000);
        }
        m.record_latency_nanos(1 << 20); // ~1 ms outlier
        let s = m.latency_snapshot();
        assert_eq!(s.count, 100);
        let mean = s.mean_us();
        assert!(mean > 1.0 && mean < 12.0, "{mean}");
        let err = crate::telemetry::SKETCH_MAX_RELATIVE_ERROR;
        let p50 = s.quantile_us(0.5);
        assert!((p50 - 1.0).abs() <= err, "{p50}");
        let p100 = s.quantile_us(1.0) * 1e3;
        assert!((p100 - (1u64 << 20) as f64).abs() / (1u64 << 20) as f64 <= err);
    }

    #[test]
    fn latency_merge_accumulates() {
        let reg = MetricsRegistry::new();
        reg.for_task(1).record_latency_nanos(100);
        reg.for_task(2).record_latency_nanos(100);
        reg.for_task(2).record_latency_nanos(200);
        let merged = reg.aggregate_latency(|_| true);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum_nanos, 400);
        assert_eq!(reg.task_latency(2).count, 2);
    }

    #[test]
    fn empty_latency_is_nan_not_panic() {
        let s = MetricsRegistry::new().task_latency(0);
        assert!(s.mean_us().is_nan());
        assert!(s.quantile_us(0.5).is_nan());
    }

    #[test]
    fn registry_hands_out_shared_sinks() {
        let reg = MetricsRegistry::new();
        let a = reg.for_task(3);
        let b = reg.for_task(3);
        a.record(ProtoEvent::Yield);
        b.record(ProtoEvent::Yield);
        assert_eq!(reg.task_snapshot(3).yields, 2);
        assert_eq!(reg.task_snapshot(9).yields, 0, "unknown task reads zero");
        let clients = reg.aggregate(|id| id != 0);
        assert_eq!(clients.yields, 2);
    }

    #[test]
    fn array_roundtrip_preserves_every_field() {
        let m = EndpointMetrics::new();
        for (i, &e) in EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.record(e);
            }
        }
        let s = m.snapshot();
        assert_eq!(MetricsSnapshot::from_array(&s.to_array()), s);
    }

    #[test]
    fn block_rate_is_fraction_of_dequeues() {
        let s = MetricsSnapshot {
            dequeues: 100,
            blocks_entered: 3,
            ..Default::default()
        };
        assert!((s.block_rate() - 0.03).abs() < 1e-12);
    }
}
