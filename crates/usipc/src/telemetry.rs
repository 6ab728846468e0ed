//! Arena-resident live telemetry: per-task stats published *into the
//! shared segment itself*, so any process that can map the memfd can watch
//! a running server without stopping it.
//!
//! The paper's argument is made of continuous measurements — sem ops per
//! round trip (Fig. 6), block rates (Fig. 10), spin success — and the
//! [`metrics`](crate::metrics) layer already counts all of them. But those
//! counters live in process-private memory and die with the process: an
//! operator of the cross-process sharded server cannot see queue depth or
//! doorbell coalescing *while it serves load*. This module moves the read
//! side into the segment:
//!
//! * [`TelemetrySlot`] — one cache-line-padded block per task holding a
//!   seqlock-published [`MetricsSnapshot`] epoch, live single-word gauges
//!   (queue depth, waiters, progress), and a fixed-size streaming quantile
//!   sketch of round-trip latency. The owning task is the only writer, so
//!   publishing is a handful of `Release` stores into its own lines — no
//!   semaphores, no kernel crossings, nothing added to the protocol hot
//!   path (the BSW 4-sem-ops/RT pin holds with telemetry on).
//! * [`TelemetryPlane`] — creation/attachment: the plane registers itself
//!   in the arena's auxiliary bootstrap slot
//!   ([`ShmArena::publish_aux`]), so it piggybacks on any segment without
//!   displacing the application's root object. `usipc-top` (`figures
//!   top`) attaches with [`ShmArena::attach_memfd`] +
//!   [`TelemetryPlane::attach`] and polls [`TelemetryPlane::read`].
//! * [`FlightRecorder`] — the trace ring's shared-memory mode: per-task
//!   bounded rings of [`TraceRecord`]s *in the segment*, stamped on the
//!   segment-wide clock axis ([`ShmArena::now_nanos`]), so the last N
//!   events of a task survive its death by SIGKILL and the survivors can
//!   dump a merged, correctly-ordered Perfetto timeline postmortem.
//!
//! ## Seqlock protocol
//!
//! Snapshot epochs use the same even/odd discipline as
//! [`TraceRing`](crate::trace::TraceRing): the writer bumps the slot's
//! sequence word to odd (`Release`), stores the payload, then bumps it to
//! even (`Release`); a reader loads the sequence (`Acquire`), rejects odd,
//! copies the payload, re-loads the sequence and retries on any change.
//! Torn snapshots are therefore *detected*, never returned. The gauges and
//! the sketch live outside the seqlock on purpose: each is a single
//! monotone (or single-word) value whose individual reads are always
//! atomic, and keeping them out lets the hot path touch them without
//! bumping the epoch.

use crate::metrics::{MetricsSnapshot, N_EVENTS};
use crate::trace::{TracePoint, TraceRecord, UnifiedTrace};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use usipc_shm::{CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// `"USTP"`: marks the aux object as a telemetry root so
/// [`TelemetryPlane::attach`] can reject segments publishing something else
/// in the aux slot.
const TELEMETRY_MAGIC: u32 = 0x5553_5450;

/// What kind of endpoint owns a telemetry slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The (resilient) server's receive side.
    Server,
    /// A client endpoint.
    Client,
    /// A sharded-server worker.
    Shard,
}

impl Role {
    fn to_u32(self) -> u32 {
        match self {
            Role::Server => 1,
            Role::Client => 2,
            Role::Shard => 3,
        }
    }

    fn from_u32(v: u32) -> Option<Role> {
        match v {
            1 => Some(Role::Server),
            2 => Some(Role::Client),
            3 => Some(Role::Shard),
            _ => None,
        }
    }

    /// Stable display name (the `usipc-top` role column).
    pub fn name(self) -> &'static str {
        match self {
            Role::Server => "server",
            Role::Client => "client",
            Role::Shard => "shard",
        }
    }
}

/// Number of log₂ major buckets in the latency sketch (bucket 33 absorbs
/// everything ≥ ~8.6 s).
pub const SKETCH_MAJORS: usize = 34;
/// Linear sub-buckets per major: 2 extra mantissa bits of resolution.
pub const SKETCH_MINORS: usize = 4;
/// Total monotone counters in one sketch.
pub const N_SKETCH_CELLS: usize = SKETCH_MAJORS * SKETCH_MINORS;

/// The sketch's worst-case relative quantile error: a cell spans
/// `[2^(m-2)·(4+k), 2^(m-2)·(5+k))`, the widest being `k = 0` with ratio
/// 5/4, and estimates are geometric cell midpoints, so an estimate is
/// within a factor `√(5/4) ≈ 1.118` of the true sample — under 12 %
/// (against √2 ≈ 41 % for the plain log₂ histogram).
pub const SKETCH_MAX_RELATIVE_ERROR: f64 = 0.1181;

/// Cell index of a nanosecond sample: which quarter of its log₂ bucket
/// `[2^m, 2^(m+1))` the sample falls in. Samples at or above `2^33` ns
/// collapse into the top major's cells.
pub(crate) fn sketch_cell(nanos: u64) -> usize {
    let n = nanos.max(1);
    let major = (63 - n.leading_zeros() as usize).min(SKETCH_MAJORS - 1);
    let off = n - (1u64 << major);
    // minor = floor((n − 2^m) · 4 / 2^m), i.e. the quarter index — computed
    // by shift so the low majors (where the quarter is fractional) still
    // resolve, and clamped so the collapsed top major stays in range.
    let minor = if major >= 2 {
        (off >> (major - 2)).min(3) as usize
    } else {
        ((off << (2 - major)).min(3)) as usize
    };
    major * SKETCH_MINORS + minor
}

/// `[lo, hi)` nanosecond bounds of cell `i` (fractional for majors < 2,
/// where a quarter of the bucket is narrower than 1 ns).
fn sketch_bounds(i: usize) -> (f64, f64) {
    let (major, minor) = (i / SKETCH_MINORS, (i % SKETCH_MINORS) as f64);
    let base = (1u64 << major) as f64;
    (base * (4.0 + minor) / 4.0, base * (5.0 + minor) / 4.0)
}

/// Plain-`u64` copy of a latency sketch, with quantile estimation.
#[derive(Debug, Clone, Copy)]
pub struct SketchSnapshot {
    /// `cells[i]` counts samples inside [`sketch_bounds`]`(i)`.
    pub cells: [u64; N_SKETCH_CELLS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples in nanoseconds (for exact means).
    pub sum_nanos: u64,
}

impl Default for SketchSnapshot {
    fn default() -> Self {
        SketchSnapshot {
            cells: [0; N_SKETCH_CELLS],
            count: 0,
            sum_nanos: 0,
        }
    }
}

impl SketchSnapshot {
    /// Exact mean in microseconds (`NaN` when empty).
    pub fn mean_us(&self) -> f64 {
        self.sum_nanos as f64 / 1e3 / self.count as f64
    }

    /// Estimate of the `q`-quantile in microseconds (`NaN` when empty):
    /// the geometric midpoint of the cell containing the quantile sample,
    /// within [`SKETCH_MAX_RELATIVE_ERROR`] of the true sample.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.cells.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = sketch_bounds(i);
                return (lo * hi).sqrt() / 1e3;
            }
        }
        f64::NAN
    }

    /// Cell-wise sum (merging per-task sketches).
    pub fn merge(mut self, other: &SketchSnapshot) -> SketchSnapshot {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self
    }

    /// `self - earlier`, cell-wise: the samples of a measurement window
    /// (cells are monotone, so the difference is well defined).
    pub fn diff(&self, earlier: &SketchSnapshot) -> SketchSnapshot {
        let mut out = SketchSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            ..SketchSnapshot::default()
        };
        for (i, dst) in out.cells.iter_mut().enumerate() {
            *dst = self.cells[i].saturating_sub(earlier.cells[i]);
        }
        out
    }
}

/// One task's telemetry block, resident in the shared segment.
///
/// `repr(C, align(64))` so consecutive slots never share a cache line:
/// each writer touches only its own slot, so publication cannot ping-pong
/// lines between endpoints (let alone add kernel crossings).
///
/// Single-writer: only the owning task calls the `&self` publish methods.
#[repr(C, align(64))]
pub struct TelemetrySlot {
    /// Seqlock word: odd while a publish is in flight, even when stable.
    seq: AtomicU32,
    /// [`Role`] as `u32`; 0 while the slot is unclaimed.
    role: AtomicU32,
    /// Platform task number of the owner.
    task_id: AtomicU32,
    _pad: AtomicU32,
    /// Segment-axis nanoseconds of the last publish (inside the seqlock).
    published_at: AtomicU64,
    /// The [`MetricsSnapshot`] epoch, as its transport array (inside the
    /// seqlock).
    events: [AtomicU64; N_EVENTS],
    /// Live gauge: receive-queue depth at last update.
    queue_depth: AtomicU64,
    /// Live gauge: tasks currently committed to sleep on this endpoint.
    waiters: AtomicU64,
    /// Live gauge: round trips completed (clients) / requests served.
    progress: AtomicU64,
    /// Live gauge: message pool slots permanently stranded by poisoned-
    /// queue drains that hit an abandoned lock or a dead producer's ring
    /// hole — segment attrition (see `ProtoEvent::SlotLeaked`).
    slots_leaked: AtomicU64,
    /// Sketch sample count (monotone).
    sketch_count: AtomicU64,
    /// Sketch nanosecond sum (monotone).
    sketch_sum: AtomicU64,
    /// Sketch cells (each monotone).
    sketch: [AtomicU64; N_SKETCH_CELLS],
}

// SAFETY: repr(C), no host pointers, every mutated field is an inline
// atomic; arrays of atomics are atomics.
unsafe impl ShmSafe for TelemetrySlot {}

impl TelemetrySlot {
    fn unused() -> Self {
        TelemetrySlot {
            seq: AtomicU32::new(0),
            role: AtomicU32::new(0),
            task_id: AtomicU32::new(0),
            _pad: AtomicU32::new(0),
            published_at: AtomicU64::new(0),
            events: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_depth: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            slots_leaked: AtomicU64::new(0),
            sketch_count: AtomicU64::new(0),
            sketch_sum: AtomicU64::new(0),
            sketch: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Publishes one snapshot epoch under the seqlock (writer side).
    fn publish(&self, now_nanos: u64, snap: &MetricsSnapshot) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        for (cell, v) in self.events.iter().zip(snap.to_array()) {
            cell.store(v, Ordering::Release);
        }
        self.published_at.store(now_nanos, Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Reads one consistent snapshot epoch, retrying while a writer is in
    /// flight. `None` after `retries` failed attempts (a storming writer).
    fn read_epoch(&self, retries: usize) -> Option<(u64, MetricsSnapshot)> {
        for _ in 0..retries {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                core::hint::spin_loop();
                continue;
            }
            let mut arr = [0u64; N_EVENTS];
            for (dst, cell) in arr.iter_mut().zip(&self.events) {
                *dst = cell.load(Ordering::Acquire);
            }
            let at = self.published_at.load(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some((at, MetricsSnapshot::from_array(&arr)));
            }
        }
        None
    }

    fn read_sketch(&self) -> SketchSnapshot {
        let mut s = SketchSnapshot {
            count: self.sketch_count.load(Ordering::Relaxed),
            sum_nanos: self.sketch_sum.load(Ordering::Relaxed),
            ..SketchSnapshot::default()
        };
        for (dst, cell) in s.cells.iter_mut().zip(&self.sketch) {
            *dst = cell.load(Ordering::Relaxed);
        }
        s
    }
}

/// One consistent reading of a claimed [`TelemetrySlot`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryReading {
    /// Platform task number of the publishing endpoint.
    pub task_id: u32,
    /// What kind of endpoint it is.
    pub role: Role,
    /// Segment-axis nanoseconds of the snapshot's publication.
    pub published_at: u64,
    /// The seqlock-consistent counter epoch.
    pub snapshot: MetricsSnapshot,
    /// Live receive-queue depth.
    pub queue_depth: u64,
    /// Live waiter count.
    pub waiters: u64,
    /// Live progress count (round trips / requests).
    pub progress: u64,
    /// Pool slots permanently stranded on this endpoint's watch (segment
    /// attrition; see `ProtoEvent::SlotLeaked`).
    pub slots_leaked: u64,
    /// The streaming round-trip latency sketch.
    pub latency: SketchSnapshot,
}

/// The segment-resident telemetry directory: a fixed array of slots plus
/// an optional flight recorder, discoverable through the arena aux slot.
#[repr(C)]
pub struct TelemetryRoot {
    magic: AtomicU32,
    n_slots: AtomicU32,
    slots: ShmSlice<TelemetrySlot>,
    /// Null when the segment carries no flight recorder.
    flight: ShmPtr<FlightRoot>,
}

// SAFETY: repr(C); `slots`/`flight` are offsets written before the root is
// published via the aux slot's Release store and never mutated after.
unsafe impl ShmSafe for TelemetryRoot {}

/// Host-side handle to a segment's telemetry plane.
#[derive(Clone)]
pub struct TelemetryPlane {
    arena: Arc<ShmArena>,
    root: ShmPtr<TelemetryRoot>,
}

impl core::fmt::Debug for TelemetryPlane {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TelemetryPlane")
            .field("n_slots", &self.n_slots())
            .finish()
    }
}

impl TelemetryPlane {
    /// Bytes the plane consumes inside an arena (slots + roots + flight
    /// rings), for capacity budgeting. Slightly over-estimates by one
    /// cache line per object for alignment padding.
    pub fn bytes_needed(n_slots: usize, flight_tasks: usize, flight_capacity: usize) -> usize {
        let slots = n_slots * core::mem::size_of::<TelemetrySlot>() + 64;
        let root = core::mem::size_of::<TelemetryRoot>() + 64;
        let flight = if flight_tasks == 0 {
            0
        } else {
            core::mem::size_of::<FlightRoot>()
                + 64
                + flight_tasks * (core::mem::size_of::<FlightTask>() + 64)
                + flight_tasks * flight_capacity * core::mem::size_of::<FlightSlot>()
                + 64
        };
        slots + root + flight
    }

    /// Allocates a plane with `n_slots` telemetry slots — and, when
    /// `flight_tasks > 0`, a flight recorder of `flight_tasks` rings
    /// holding the last `flight_capacity` events each — then publishes it
    /// in the arena's aux slot.
    ///
    /// # Errors
    ///
    /// [`ShmError::OutOfMemory`] when the arena cannot hold it.
    pub fn create_in(
        arena: &Arc<ShmArena>,
        n_slots: usize,
        flight_tasks: usize,
        flight_capacity: usize,
    ) -> Result<TelemetryPlane, ShmError> {
        let slots = arena.alloc_slice(n_slots, |_| TelemetrySlot::unused())?;
        let flight = if flight_tasks > 0 {
            let cap = flight_capacity.max(1);
            let mut rings = Vec::with_capacity(flight_tasks);
            for _ in 0..flight_tasks {
                rings.push(arena.alloc_slice(cap, |_| FlightSlot {
                    seq: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    point: AtomicU64::new(0),
                })?);
            }
            let tasks = arena.alloc_slice(flight_tasks, |i| FlightTask {
                cursor: CacheAligned::new(AtomicU64::new(0)),
                slots: rings[i],
            })?;
            arena.alloc(FlightRoot {
                n_tasks: AtomicU32::new(flight_tasks as u32),
                capacity: AtomicU32::new(cap as u32),
                tasks,
            })?
        } else {
            ShmPtr::NULL
        };
        let root = arena.alloc(TelemetryRoot {
            magic: AtomicU32::new(TELEMETRY_MAGIC),
            n_slots: AtomicU32::new(n_slots as u32),
            slots,
            flight,
        })?;
        arena.publish_aux(root);
        Ok(TelemetryPlane {
            arena: Arc::clone(arena),
            root,
        })
    }

    /// Attaches to the plane a creator published in `arena`'s aux slot.
    /// `None` when the segment has no telemetry plane (or the aux object
    /// is something else).
    pub fn attach(arena: &Arc<ShmArena>) -> Option<TelemetryPlane> {
        let root: ShmPtr<TelemetryRoot> = arena.aux()?;
        if arena.get(root).magic.load(Ordering::Acquire) != TELEMETRY_MAGIC {
            return None;
        }
        Some(TelemetryPlane {
            arena: Arc::clone(arena),
            root,
        })
    }

    /// Number of slots in the plane.
    pub fn n_slots(&self) -> usize {
        self.arena.get(self.root).n_slots.load(Ordering::Relaxed) as usize
    }

    fn slot(&self, i: usize) -> &TelemetrySlot {
        let r = self.arena.get(self.root);
        &self.arena.get_slice(r.slots)[i]
    }

    /// Claims slot `i` for `task_id` in `role` and returns its writer.
    ///
    /// Slots are assigned by convention (the harness uses slot = task id),
    /// not negotiated: the single-writer discipline is the caller's
    /// responsibility, exactly as for [`TraceRing`](crate::trace::TraceRing).
    pub fn writer(&self, i: usize, task_id: u32, role: Role) -> TelemetryWriter {
        let s = self.slot(i);
        s.task_id.store(task_id, Ordering::Relaxed);
        s.role.store(role.to_u32(), Ordering::Release);
        TelemetryWriter {
            plane: self.clone(),
            index: i,
        }
    }

    /// One consistent reading of slot `i`; `None` while the slot is
    /// unclaimed or a writer storm starves the seqlock.
    pub fn read(&self, i: usize) -> Option<TelemetryReading> {
        let s = self.slot(i);
        let role = Role::from_u32(s.role.load(Ordering::Acquire))?;
        let (published_at, snapshot) = s.read_epoch(1_000)?;
        Some(TelemetryReading {
            task_id: s.task_id.load(Ordering::Relaxed),
            role,
            published_at,
            snapshot,
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            waiters: s.waiters.load(Ordering::Relaxed),
            progress: s.progress.load(Ordering::Relaxed),
            slots_leaked: s.slots_leaked.load(Ordering::Relaxed),
            latency: s.read_sketch(),
        })
    }

    /// All claimed slots' readings, slot order.
    pub fn readings(&self) -> Vec<TelemetryReading> {
        (0..self.n_slots()).filter_map(|i| self.read(i)).collect()
    }

    /// The segment's flight recorder, when the creator armed one.
    pub fn flight(&self) -> Option<FlightRecorder> {
        let f = self.arena.get(self.root).flight;
        if f.is_null() {
            return None;
        }
        Some(FlightRecorder {
            arena: Arc::clone(&self.arena),
            root: f,
        })
    }

    /// The arena the plane lives in (timestamp axis + memfd access).
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }
}

/// Write handle for one claimed slot; the owning task's publication side.
#[derive(Clone, Debug)]
pub struct TelemetryWriter {
    plane: TelemetryPlane,
    index: usize,
}

impl TelemetryWriter {
    fn slot(&self) -> &TelemetrySlot {
        self.plane.slot(self.index)
    }

    /// Publishes a counter snapshot epoch (seqlock write), stamped on the
    /// segment clock axis.
    pub fn publish(&self, snap: &MetricsSnapshot) {
        self.slot().publish(self.plane.arena.now_nanos(), snap);
    }

    /// Updates the live queue-depth gauge (single store, outside the
    /// seqlock).
    pub fn set_queue_depth(&self, depth: u64) {
        self.slot().queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Updates the live waiter-count gauge.
    pub fn set_waiters(&self, waiters: u64) {
        self.slot().waiters.store(waiters, Ordering::Relaxed);
    }

    /// Updates the live progress gauge.
    pub fn set_progress(&self, progress: u64) {
        self.slot().progress.store(progress, Ordering::Relaxed);
    }

    /// Updates the stranded-slot gauge (segment attrition; fed from the
    /// endpoint's `slots_leaked` counter so `usipc-top` shows pool decay
    /// instead of hiding it).
    pub fn set_slots_leaked(&self, leaked: u64) {
        self.slot().slots_leaked.store(leaked, Ordering::Relaxed);
    }

    /// Streams one round-trip latency sample into the quantile sketch
    /// (three `Relaxed` `fetch_add`s on the writer's own lines).
    pub fn record_latency_nanos(&self, nanos: u64) {
        let s = self.slot();
        s.sketch[sketch_cell(nanos)].fetch_add(1, Ordering::Relaxed);
        s.sketch_count.fetch_add(1, Ordering::Relaxed);
        s.sketch_sum.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// One flight-recorder ring slot (same shape as the heap
/// [`TraceRing`](crate::trace::TraceRing)'s, resident in the segment).
#[repr(C)]
pub struct FlightSlot {
    /// Lap seqlock: `2·lap + 1` mid-write, `2·lap + 2` complete.
    seq: AtomicU64,
    ts: AtomicU64,
    point: AtomicU64,
}

// SAFETY: repr(C), all-atomic.
unsafe impl ShmSafe for FlightSlot {}

/// One task's flight ring header.
#[repr(C)]
pub struct FlightTask {
    /// Records ever started by this task (cache-line isolated: the owner
    /// bumps it on every event).
    cursor: CacheAligned<AtomicU64>,
    slots: ShmSlice<FlightSlot>,
}

// SAFETY: repr(C); `slots` is an offset written before publication.
unsafe impl ShmSafe for FlightTask {}

/// The flight recorder's segment-resident directory.
#[repr(C)]
pub struct FlightRoot {
    n_tasks: AtomicU32,
    capacity: AtomicU32,
    tasks: ShmSlice<FlightTask>,
}

// SAFETY: repr(C); `tasks` is an offset written before publication.
unsafe impl ShmSafe for FlightRoot {}

/// Host-side handle to a segment's flight recorder: per-task shared-memory
/// trace rings whose records survive the writer's death.
#[derive(Clone)]
pub struct FlightRecorder {
    arena: Arc<ShmArena>,
    root: ShmPtr<FlightRoot>,
}

impl core::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("n_tasks", &self.n_tasks())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl FlightRecorder {
    /// Number of per-task rings.
    pub fn n_tasks(&self) -> u32 {
        self.arena.get(self.root).n_tasks.load(Ordering::Relaxed)
    }

    /// Ring capacity in records (the "last N events" N).
    pub fn capacity(&self) -> u32 {
        self.arena.get(self.root).capacity.load(Ordering::Relaxed)
    }

    /// The single-writer record handle for `task_id`'s ring (`None` when
    /// the recorder was sized for fewer tasks).
    pub fn ring(&self, task_id: u32) -> Option<FlightHandle> {
        if task_id >= self.n_tasks() {
            return None;
        }
        Some(FlightHandle {
            recorder: self.clone(),
            task_id,
        })
    }

    fn task(&self, task_id: u32) -> &FlightTask {
        let r = self.arena.get(self.root);
        &self.arena.get_slice(r.tasks)[task_id as usize]
    }

    /// Drains every ring into one merged, time-sorted [`UnifiedTrace`] —
    /// safe against concurrent writers *and* against writers that died
    /// mid-record: torn or recycled slots fail their lap check and are
    /// skipped, exactly as in [`TraceRing::drain`](crate::trace::TraceRing::drain).
    pub fn collect(&self, names: &[(u32, String)]) -> UnifiedTrace {
        let mut records = Vec::new();
        let mut dropped = 0u64;
        let mut seen_tasks = Vec::new();
        for task_id in 0..self.n_tasks() {
            let t = self.task(task_id);
            let end = t.cursor.load(Ordering::Acquire);
            if end == 0 {
                continue;
            }
            seen_tasks.push(task_id);
            let slots = self.arena.get_slice(t.slots);
            let n = slots.len() as u64;
            dropped += end.saturating_sub(n);
            let mut last_ts = 0u64;
            for i in end.saturating_sub(n)..end {
                let slot = &slots[(i % n) as usize];
                let expect = 2 * (i / n) + 2;
                if slot.seq.load(Ordering::Acquire) != expect {
                    continue;
                }
                let ts = slot.ts.load(Ordering::Acquire);
                let word = slot.point.load(Ordering::Acquire);
                if slot.seq.load(Ordering::Acquire) != expect {
                    continue;
                }
                let Some(point) = TracePoint::decode(word as u32) else {
                    continue;
                };
                if ts < last_ts {
                    continue;
                }
                last_ts = ts;
                records.push(TraceRecord {
                    ts_nanos: ts,
                    task_id,
                    point,
                });
            }
        }
        let mut trace = UnifiedTrace::from_parts(records, names.to_vec(), dropped);
        for id in seen_tasks {
            trace.ensure_task(id);
        }
        trace
    }
}

/// Single-writer record handle for one task's flight ring.
#[derive(Clone, Debug)]
pub struct FlightHandle {
    recorder: FlightRecorder,
    task_id: u32,
}

impl FlightHandle {
    /// Appends one record on the segment clock axis, overwriting the
    /// oldest when full. Must only be called from the owning task.
    #[inline]
    pub fn record(&self, ts_nanos: u64, point: TracePoint) {
        let t = self.recorder.task(self.task_id);
        let slots = self.recorder.arena.get_slice(t.slots);
        let i = t.cursor.load(Ordering::Relaxed);
        let n = slots.len() as u64;
        let slot = &slots[(i % n) as usize];
        let lap = i / n;
        slot.seq.store(2 * lap + 1, Ordering::Release);
        slot.ts.store(ts_nanos, Ordering::Release);
        slot.point.store(point.encode() as u64, Ordering::Release);
        slot.seq.store(2 * lap + 2, Ordering::Release);
        t.cursor.store(i + 1, Ordering::Release);
    }

    /// The segment clock reading, for stamping records on the shared axis.
    pub fn now_nanos(&self) -> u64 {
        self.recorder.arena.now_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ProtoEvent;
    use crate::trace::Span;

    fn plane(n_slots: usize, flight_tasks: usize, flight_cap: usize) -> TelemetryPlane {
        let bytes = TelemetryPlane::bytes_needed(n_slots, flight_tasks, flight_cap) + 256;
        let arena = Arc::new(ShmArena::new(bytes).unwrap());
        TelemetryPlane::create_in(&arena, n_slots, flight_tasks, flight_cap).unwrap()
    }

    #[test]
    fn bytes_needed_is_sufficient() {
        // The budget must actually cover the allocations it predicts —
        // `plane()` would panic on OutOfMemory otherwise.
        let _ = plane(16, 8, 256);
        let _ = plane(1, 0, 0);
    }

    #[test]
    fn publish_read_roundtrip_through_aux_slot() {
        let p = plane(4, 0, 0);
        assert!(p.read(0).is_none(), "unclaimed slot reads as absent");
        let w = p.writer(0, 7, Role::Client);
        let snap = MetricsSnapshot {
            sem_p: 3,
            sem_v: 4,
            dequeues: 100,
            blocks_entered: 3,
            ..Default::default()
        };
        w.publish(&snap);
        w.set_queue_depth(5);
        w.set_waiters(1);
        w.set_progress(42);
        w.set_slots_leaked(2);
        w.record_latency_nanos(1_000);

        // A second attach through the same arena (heap: same mapping, but
        // the discovery path is identical to the cross-process one).
        let p2 = TelemetryPlane::attach(p.arena()).expect("aux-slot discovery");
        let r = p2.read(0).expect("claimed slot");
        assert_eq!(r.task_id, 7);
        assert_eq!(r.role, Role::Client);
        assert_eq!(r.snapshot, snap);
        assert_eq!(r.queue_depth, 5);
        assert_eq!(r.waiters, 1);
        assert_eq!(r.progress, 42);
        assert_eq!(r.slots_leaked, 2);
        assert_eq!(r.latency.count, 1);
        assert!((r.snapshot.block_rate() - 0.03).abs() < 1e-12);
        assert_eq!(p2.readings().len(), 1);
    }

    #[test]
    fn attach_rejects_arena_without_plane() {
        let arena = Arc::new(ShmArena::new(4096).unwrap());
        assert!(TelemetryPlane::attach(&arena).is_none());
    }

    #[test]
    fn sketch_estimates_within_error_bound() {
        // Sweep four decades of sample magnitudes: a single-sample sketch
        // must estimate its own sample within the documented bound.
        let mut v = 1u64;
        while v < (1u64 << 33) {
            let p = plane(1, 0, 0);
            let w = p.writer(0, 0, Role::Client);
            w.record_latency_nanos(v);
            let est_ns = p.read(0).unwrap().latency.quantile_us(1.0) * 1e3;
            let rel = (est_ns - v as f64).abs() / v as f64;
            assert!(
                rel <= SKETCH_MAX_RELATIVE_ERROR + 1e-9,
                "sample {v} ns estimated {est_ns} ns: relative error {rel}"
            );
            v = (v * 13 / 8).max(v + 1);
        }
    }

    #[test]
    fn sketch_is_strictly_sharper_than_log2_buckets() {
        // 1000 ns sits awkwardly in its log₂ bucket [512, 1024): the plain
        // histogram's midpoint is off by ~28 %; the 2-extra-bit sketch must
        // land within 12 %.
        let p = plane(1, 0, 0);
        let w = p.writer(0, 0, Role::Client);
        for _ in 0..100 {
            w.record_latency_nanos(1_000);
        }
        let s = p.read(0).unwrap().latency;
        assert_eq!(s.count, 100);
        let p50 = s.quantile_us(0.5) * 1e3;
        assert!(
            (p50 - 1000.0).abs() / 1000.0 <= SKETCH_MAX_RELATIVE_ERROR,
            "p50 {p50} ns"
        );
        assert!((s.mean_us() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sketch_diff_is_windowed() {
        let p = plane(1, 0, 0);
        let w = p.writer(0, 0, Role::Client);
        w.record_latency_nanos(100);
        let start = p.read(0).unwrap().latency;
        w.record_latency_nanos(200);
        w.record_latency_nanos(300);
        let window = p.read(0).unwrap().latency.diff(&start);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum_nanos, 500);
    }

    #[test]
    fn seqlock_never_returns_a_torn_snapshot_under_writer_storm() {
        use std::sync::atomic::AtomicBool;
        let p = plane(1, 0, 0);
        let w = p.writer(0, 3, Role::Server);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut g = 1u64;
                while !stop.load(Ordering::Acquire) {
                    // Every field of generation g is a known function of g,
                    // so a reader mixing two generations cannot satisfy the
                    // relation checked below.
                    let mut arr = [0u64; N_EVENTS];
                    for (i, v) in arr.iter_mut().enumerate() {
                        *v = g * (i as u64 + 1);
                    }
                    let snap = MetricsSnapshot::from_array(&arr);
                    p.slot(0).publish(g, &snap);
                    g += 1;
                }
                g
            })
        };
        let reader_plane = TelemetryPlane::attach(w.plane.arena()).unwrap();
        let mut consistent_reads = 0u64;
        for _ in 0..2_000 {
            let Some(r) = reader_plane.read(0) else {
                continue; // seqlock starved this attempt: allowed, not torn
            };
            let g = r.published_at;
            if g == 0 {
                continue; // before the first publish
            }
            let arr = r.snapshot.to_array();
            for (i, &v) in arr.iter().enumerate() {
                assert_eq!(
                    v,
                    g * (i as u64 + 1),
                    "torn read: field {i} of generation {g}"
                );
            }
            consistent_reads += 1;
        }
        stop.store(true, Ordering::Release);
        let gens = writer.join().unwrap();
        assert!(gens > 1, "writer made progress");
        assert!(consistent_reads > 0, "reader starved completely");
    }

    #[test]
    fn flight_ring_records_survive_and_merge_ordered() {
        let p = plane(2, 3, 8);
        let f = p.flight().expect("flight recorder armed");
        assert_eq!(f.n_tasks(), 3);
        assert_eq!(f.capacity(), 8);
        assert!(f.ring(3).is_none(), "out-of-range task refused");

        let r0 = f.ring(0).unwrap();
        let r1 = f.ring(1).unwrap();
        r0.record(10, TracePoint::Begin(Span::RoundTrip));
        r1.record(15, TracePoint::Proto(ProtoEvent::SemP));
        r0.record(20, TracePoint::End(Span::RoundTrip));
        // Overflow task 1's ring: only the newest 8 survive, drops counted.
        for i in 0..12u64 {
            r1.record(100 + i, TracePoint::Proto(ProtoEvent::Enqueue));
        }
        let trace = f.collect(&[(0, "server".into()), (1, "victim".into())]);
        assert_eq!(trace.dropped, 12 + 1 - 8);
        let t0 = trace.task_records(0);
        assert_eq!(t0.len(), 2);
        assert_eq!(t0[0].point, TracePoint::Begin(Span::RoundTrip));
        let t1 = trace.task_records(1);
        assert_eq!(t1.len(), 8, "last N events of the busy task");
        // Merged stream is time-sorted across tasks.
        for pair in trace.records.windows(2) {
            assert!(pair[0].ts_nanos <= pair[1].ts_nanos);
        }
        // And the Perfetto export balances the spans.
        let json = trace.to_chrome_json();
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
    }

    #[test]
    fn plane_without_flight_reports_none() {
        let p = plane(1, 0, 0);
        assert!(p.flight().is_none());
    }
}
