//! WaitSet multiplexing: one waiter, many sources, a single doorbell.
//!
//! The paper's protocols pair every queue with its own semaphore, so a
//! server sleeping for *any* of N clients would need N blocked tasks (the
//! §2.1 thread-per-client server) or N sequential `P`s. A production
//! server multiplexes thousands of clients; this module adds the missing
//! primitive, shaped after the seraph `ipc/waitset` design (SNIPPETS.md)
//! and the "Semaphores Augmented with a Waiting Array" idea of one
//! semaphore serving many waiters without thundering herds:
//!
//! * [`WaitSetRoot`] — an arena-resident aggregation object: one
//!   cache-line-aligned **ready word** per source plus a shared **pending
//!   latch**, all plain `AtomicU32`s so the structure works across
//!   address spaces exactly like the queues it multiplexes.
//! * A single **doorbell** — a platform semaphore index (a
//!   [`FutexSem`](crate::sem::FutexSem)-backed
//!   [`CountingSem`](crate::CountingSem) on the native Linux backend) the
//!   waiter blocks on.
//!
//! ## The doorbell budget
//!
//! A naive design Vs the doorbell on every enqueue: N ready sources
//! would bank N credits and the waiter would spin through N-1 empty
//! wake-ups — the same credit-accumulation bug the paper's authors hit
//! with their first BSW version, at fan-in scale. Instead a producer's
//! [`notify`](WaitSet::notify) is **edge-triggered twice over**:
//!
//! 1. `swap(1)` on its source's ready word — only the quiescent→ready
//!    edge proceeds (a level held high is free), and
//! 2. `swap(1)` on the shared `pending` latch — only the first edge of a
//!    wake cycle actually Vs the doorbell.
//!
//! The waiter clears `pending` immediately after its `P` completes and
//! then drains ready words round-robin, so however many sources became
//! ready while it slept, the cycle cost exactly one `V` and one `P`. The
//! invariant is machine-checked (`doorbells_rung ≤ waitset_wakes + 1`,
//! the `+1` being the last credit still banked at shutdown) by
//! `tests/waitset_mux.rs`.
//!
//! Lost wake-ups are impossible for the same reason they are in the
//! Fig. 5 protocol: the producer sets its ready word *before* testing the
//! latch, the waiter clears the latch *before* scanning, and both
//! operations are `SeqCst` swaps — whichever side's swap lands second
//! sees the other's write, so either the producer observes `pending == 0`
//! and rings, or the waiter's next scan observes the ready word.
//!
//! On top of the primitive, [`ShardedServer`] routes clients to K shards
//! (multiplicative hash), runs one worker + WaitSet per shard with the
//! failure semantics of
//! [`run_resilient_server`](crate::run_resilient_server) applied per
//! source (heartbeat scans, peer-death reaping, sticky poisoning), and
//! lets an idle worker steal a ready source from a sibling whose backlog
//! exceeds a threshold.

use core::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::channel::{Channel, ChannelConfig};
use crate::fault::IpcError;
use crate::metrics::ProtoEvent;
use crate::msg::{opcode, Message};
use crate::platform::{Cost, OsServices};
use crate::protocol::{
    blocking_dequeue, blocking_dequeue_deadline, enqueue_or_sleep, enqueue_or_sleep_deadline,
    Deadline,
};
use crate::server::ServerRun;
use crate::trace::{Span, TracePoint};
use usipc_queue::QueueKind;
use usipc_shm::{monotonic_nanos, CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// Arena-resident state of one WaitSet: the aggregation object N
/// producers notify and one waiter sleeps on.
///
/// Lives in shared memory (all fields are offsets or atomics), so the
/// producers may be in other address spaces; the doorbell itself is a
/// *platform semaphore index*, which on the native backend can point
/// into a process-shared [`FutexSem`](crate::sem::FutexSem) table.
#[repr(C)]
#[derive(Debug)]
pub struct WaitSetRoot {
    /// The wake-cycle latch: 1 while a doorbell credit is (about to be)
    /// outstanding. Producers `swap(1)` and only the winner Vs; the
    /// waiter clears it right after its `P` completes.
    pending: CacheAligned<AtomicU32>,
    /// One ready word per source, each on its own cache line so N
    /// producers never contend on each other's edges (same rationale as
    /// the per-client `awake` flags).
    ready: ShmSlice<CacheAligned<AtomicU32>>,
    /// Platform semaphore index of the doorbell.
    doorbell_sem: u32,
    /// Number of sources.
    n_sources: u32,
}

unsafe impl ShmSafe for WaitSetRoot {}

impl WaitSetRoot {
    /// Allocates a WaitSet for `n_sources` sources inside `arena`, with
    /// `doorbell_sem` as the waiter's semaphore. The caller owns the
    /// bootstrap story (embed the returned pointer in whatever root it
    /// publishes), exactly like [`Channel::create_in`].
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion; budget with [`Self::bytes_needed`].
    pub fn create_in(
        arena: &ShmArena,
        n_sources: usize,
        doorbell_sem: u32,
    ) -> Result<ShmPtr<WaitSetRoot>, ShmError> {
        assert!(n_sources >= 1, "a waitset needs at least one source");
        let ready = arena.alloc_slice(n_sources, |_| CacheAligned::new(AtomicU32::new(0)))?;
        arena.alloc(WaitSetRoot {
            pending: CacheAligned::new(AtomicU32::new(0)),
            ready,
            doorbell_sem,
            n_sources: n_sources as u32,
        })
    }

    /// Arena bytes [`Self::create_in`] needs for `n_sources` sources
    /// (worst-case alignment slack included).
    pub fn bytes_needed(n_sources: usize) -> usize {
        n_sources * core::mem::size_of::<CacheAligned<AtomicU32>>()
            + core::mem::align_of::<CacheAligned<AtomicU32>>()
            + core::mem::size_of::<WaitSetRoot>()
            + core::mem::align_of::<WaitSetRoot>()
    }
}

/// A resolved view of a [`WaitSetRoot`]: the handle producers notify and
/// the waiter waits on. Cheap to build, `Copy`-free but borrow-only —
/// mirrors [`QueueRef`](crate::QueueRef).
pub struct WaitSet<'a> {
    arena: &'a ShmArena,
    root: &'a WaitSetRoot,
}

impl<'a> WaitSet<'a> {
    /// Resolves `root` inside `arena` (the attach side of
    /// [`WaitSetRoot::create_in`]; bounds/alignment are validated by the
    /// arena on first dereference).
    pub fn attach(arena: &'a ShmArena, root: ShmPtr<WaitSetRoot>) -> WaitSet<'a> {
        WaitSet {
            arena,
            root: arena.get(root),
        }
    }

    /// Number of sources.
    pub fn n_sources(&self) -> usize {
        self.root.n_sources as usize
    }

    /// The doorbell's platform semaphore index.
    pub fn doorbell_sem(&self) -> u32 {
        self.root.doorbell_sem
    }

    fn ready_word(&self, source: usize) -> &AtomicU32 {
        self.arena.get(self.root.ready.at(source)).get()
    }

    /// Producer side: marks `source` ready and rings the doorbell **only
    /// on the quiescent→ready edge of an idle wake cycle** — at most one
    /// semaphore `V` per server wake regardless of how many sources (or
    /// how many messages per source) become ready. Call *after* the
    /// message is enqueued, exactly like `wake_consumer` in the
    /// single-queue protocols.
    ///
    /// # Panics
    ///
    /// If `source` is out of range.
    pub fn notify<O: OsServices>(&self, os: &O, source: usize) {
        assert!(
            source < self.n_sources(),
            "source {source} out of range for waitset of {}",
            self.n_sources()
        );
        os.charge(Cost::Tas);
        if self.ready_word(source).swap(1, Ordering::SeqCst) == 0 {
            os.charge(Cost::Tas);
            if self.root.pending.swap(1, Ordering::SeqCst) == 0 {
                os.record(ProtoEvent::DoorbellRung);
                os.sem_v(self.root.doorbell_sem);
                return;
            }
        }
        os.record(ProtoEvent::DoorbellCoalesced);
    }

    /// Waiter side, non-blocking: claims and returns the next ready
    /// source at-or-after `*cursor` in round-robin order, advancing the
    /// cursor past it — so a chatty low-numbered source cannot starve the
    /// rest. Returns `None` when no source is ready.
    ///
    /// Claiming swaps the ready word back to 0: the caller owns the
    /// source's backlog and must drain it (a message enqueued *after* the
    /// swap re-raises the word via its own `notify`, so nothing is lost).
    pub fn poll(&self, cursor: &mut usize) -> Option<usize> {
        let n = self.n_sources();
        for i in 0..n {
            let s = (*cursor + i) % n;
            if self.ready_word(s).swap(0, Ordering::SeqCst) == 1 {
                *cursor = (s + 1) % n;
                return Some(s);
            }
        }
        None
    }

    /// Waiter side, blocking: polls, and if nothing is ready sleeps on
    /// the doorbell; each completed `P` opens a new wake cycle (clears
    /// the pending latch) and rescans. Returns the claimed source.
    pub fn wait<O: OsServices>(&self, os: &O, cursor: &mut usize) -> usize {
        loop {
            if let Some(s) = self.poll(cursor) {
                return s;
            }
            os.record(ProtoEvent::BlockEntered);
            os.trace(TracePoint::Begin(Span::Block));
            os.sem_p(self.root.doorbell_sem);
            os.trace(TracePoint::End(Span::Block));
            os.record(ProtoEvent::WaitSetWake);
            self.root.pending.store(0, Ordering::SeqCst);
        }
    }

    /// Recovery-time rebuild of the waitset's wake state (the WaitSet leg
    /// of [`recover`](crate::recover)): re-derives every ready word from
    /// the *actual* backlog of its source, then re-establishes the
    /// latch/credit invariant — any source ready ⇒ pending latch held and
    /// exactly one doorbell credit banked; none ⇒ latch clear, zero
    /// credits.
    ///
    /// The caller supplies `backlog` (does source `s` have undrained
    /// messages?) because the waitset does not know what its sources are.
    /// Must only run under the recovery quiescence contract: the waiter is
    /// dead and no producer is concurrently notifying. A consistent
    /// waitset is left untouched and reports all-zero (the banked credit
    /// of a ready cycle is absorbed and re-posted, which nets out in both
    /// the report and the semaphore words).
    pub fn fsck<O: OsServices>(
        &self,
        os: &O,
        mut backlog: impl FnMut(usize) -> bool,
    ) -> WaitSetFsck {
        let mut r = WaitSetFsck::default();
        // Bank every outstanding doorbell credit: with the waiter dead,
        // each is either the live cycle's single credit (re-posted below)
        // or a stray that would cost the successor a spurious wake.
        let mut banked = 0u32;
        while os.sem_p_deadline(self.root.doorbell_sem, Duration::ZERO) {
            banked += 1;
        }
        let mut any_ready = false;
        for s in 0..self.n_sources() {
            let want = backlog(s);
            any_ready |= want;
            let w = self.ready_word(s);
            let have = w.load(Ordering::SeqCst) != 0;
            if want && !have {
                // The dead waiter claimed the edge (swapped it to 0) but
                // never drained the source: re-raise it or the backlog is
                // invisible forever.
                w.store(1, Ordering::SeqCst);
                r.ready_raised += 1;
            } else if !want && have {
                // Stale edge over an empty source (a thief drained it):
                // clear, so the successor does not burn a scan on it.
                w.store(0, Ordering::SeqCst);
                r.ready_cleared += 1;
            }
        }
        let want_latch = any_ready;
        if (self.root.pending.load(Ordering::SeqCst) != 0) != want_latch {
            self.root.pending.store(want_latch as u32, Ordering::SeqCst);
            r.latch_repaired = true;
        }
        let needed = u32::from(any_ready);
        for _ in 0..needed.saturating_sub(banked) {
            r.doorbell_rung = true; // a wake cycle had no credit banked
        }
        if needed > 0 {
            os.sem_v(self.root.doorbell_sem);
        }
        r.credits_absorbed = banked.saturating_sub(needed);
        for _ in 0..r.credits_absorbed {
            os.record(ProtoEvent::CreditAbsorbed);
        }
        if r.repairs() > 0 {
            os.record(ProtoEvent::FsckRepair);
        }
        r
    }

    /// [`Self::wait`] bounded by `timeout`: expiry returns
    /// [`IpcError::Timeout`] without consuming a doorbell credit (the
    /// [`sem_p_deadline`](OsServices::sem_p_deadline) no-credit-lost
    /// contract) and without touching the pending latch, so a `V` racing
    /// the expiry is found by the caller's next poll.
    ///
    /// # Errors
    ///
    /// [`IpcError::Timeout`] when the deadline expires with no source
    /// ready.
    pub fn wait_deadline<O: OsServices>(
        &self,
        os: &O,
        cursor: &mut usize,
        timeout: Duration,
    ) -> Result<usize, IpcError> {
        let deadline = Deadline::new(os, timeout);
        loop {
            if let Some(s) = self.poll(cursor) {
                return Ok(s);
            }
            let Some(left) = deadline.remaining(os) else {
                return Err(IpcError::Timeout);
            };
            os.record(ProtoEvent::BlockEntered);
            os.trace(TracePoint::Begin(Span::Block));
            let taken = os.sem_p_deadline(self.root.doorbell_sem, left);
            os.trace(TracePoint::End(Span::Block));
            if taken {
                os.record(ProtoEvent::WaitSetWake);
                self.root.pending.store(0, Ordering::SeqCst);
            } else {
                os.record(ProtoEvent::TimedOut);
                return Err(IpcError::Timeout);
            }
        }
    }
}

/// Report of one [`WaitSet::fsck`] pass. Every repair is conditional, so
/// a consistent waitset reports the `Default` (all-zero) value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitSetFsck {
    /// Ready words re-raised: the dead waiter had claimed the edge but
    /// never drained the source's backlog.
    pub ready_raised: u32,
    /// Ready words cleared: stale edges over sources with no backlog.
    pub ready_cleared: u32,
    /// Stray doorbell credits absorbed (beyond the single credit a ready
    /// cycle is entitled to).
    pub credits_absorbed: u32,
    /// The pending latch disagreed with the rebuilt ready state.
    pub latch_repaired: bool,
    /// A wake cycle was owed a doorbell credit that was not banked (the
    /// waiter died between the latch swap and the `V`, or consumed the
    /// credit without draining).
    pub doorbell_rung: bool,
}

impl WaitSetFsck {
    /// Number of individual repairs performed.
    pub fn repairs(&self) -> u32 {
        self.ready_raised
            + self.ready_cleared
            + self.credits_absorbed
            + u32::from(self.latch_repaired)
            + u32::from(self.doorbell_rung)
    }

    /// Whether the pass changed anything (a consistent waitset: `false`).
    pub fn repaired_anything(&self) -> bool {
        self.repairs() > 0
    }
}

/// Sizing and policy knobs for a [`ShardedServer`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Total clients across all shards.
    pub n_clients: usize,
    /// Number of shards (each gets one worker task and one WaitSet).
    pub n_shards: usize,
    /// Per-queue capacity of each client channel.
    pub queue_capacity: usize,
    /// A sibling shard whose queued backlog (messages across its live
    /// sources) exceeds this is eligible to have one ready source stolen
    /// by an idle worker.
    pub steal_threshold: usize,
    /// Bound on every worker wait: each expiry runs the per-source
    /// liveness scan (reaping dead clients, exactly like
    /// [`run_resilient_server`](crate::run_resilient_server)) and the
    /// work-stealing check.
    pub heartbeat: Duration,
    /// Queue representation for every member channel (see
    /// [`ChannelConfig::queue_kind`]). [`QueueKind::Ring`] makes the
    /// shard data path wait-free: a client SIGKILLed mid-enqueue can no
    /// longer wedge its shard's worker (or a thief) on an abandoned
    /// tail lock.
    pub queue_kind: QueueKind,
}

impl ShardedConfig {
    /// Defaults: 64-deep queues, steal past a 32-message backlog, 25 ms
    /// heartbeat.
    pub fn new(n_clients: usize, n_shards: usize) -> Self {
        ShardedConfig {
            n_clients,
            n_shards,
            queue_capacity: 64,
            steal_threshold: 32,
            heartbeat: Duration::from_millis(25),
            queue_kind: QueueKind::default(),
        }
    }

    /// Platform semaphores the topology needs: one doorbell per shard,
    /// then a 2-sem block per client channel (`K + 2c` is channel `c`'s
    /// [`sem_base`](ChannelConfig::sem_base)). Size
    /// [`NativeConfig::n_sems`](crate::NativeConfig::n_sems) with this.
    pub fn n_sems(&self) -> usize {
        self.n_shards + 2 * self.n_clients
    }
}

/// Fibonacci-style multiplicative hash routing a client id to a shard —
/// cheap, stateless, and resistant to the stride patterns sequential ids
/// would put through a plain modulus.
fn shard_of(client: u32, n_shards: usize) -> usize {
    (client.wrapping_mul(2_654_435_761) >> 16) as usize % n_shards
}

/// K shards of hash-routed clients, each shard a WaitSet-multiplexed
/// worker: the scale-out topology on top of [`WaitSet`].
///
/// Every client gets its own single-client [`Channel`] (private request
/// and reply queues, semaphores placed at a disjoint
/// [`sem_base`](ChannelConfig::sem_base)); a client's request path is
/// enqueue + [`WaitSet::notify`] on its shard, and its reply path is the
/// unchanged Fig. 5 discipline on its private reply queue. Workers run
/// [`ShardedServer::run_worker`], which preserves
/// [`run_resilient_server`](crate::run_resilient_server)'s failure
/// semantics per source and steals from overloaded siblings when idle.
#[derive(Debug)]
pub struct ShardedServer {
    cfg: ShardedConfig,
    /// Control arena holding the per-shard [`WaitSetRoot`]s.
    control: Arc<ShmArena>,
    waitsets: Vec<ShmPtr<WaitSetRoot>>,
    /// One single-client channel per client.
    channels: Vec<Channel>,
    /// Shard → member client ids (slot order = WaitSet source order).
    members: Vec<Vec<u32>>,
    /// Client → (shard, slot within the shard's WaitSet).
    route: Vec<(u32, u32)>,
    /// Client → session state: 0 live, 1 gone (disconnected or reaped).
    /// Shared across workers because a *thief* may be the one to observe
    /// a sibling's member disconnect; each transition is counted exactly
    /// once via `swap`.
    session: Vec<AtomicU32>,
}

impl ShardedServer {
    /// Builds the full topology: K WaitSets in a control arena plus one
    /// channel per client.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion from any allocation.
    ///
    /// # Panics
    ///
    /// If `cfg` has zero clients or zero shards.
    pub fn create(cfg: ShardedConfig) -> Result<ShardedServer, ShmError> {
        assert!(cfg.n_clients >= 1, "sharded server needs clients");
        assert!(cfg.n_shards >= 1, "sharded server needs shards");
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_shards];
        let mut route = Vec::with_capacity(cfg.n_clients);
        for c in 0..cfg.n_clients as u32 {
            let s = shard_of(c, cfg.n_shards);
            route.push((s as u32, members[s].len() as u32));
            members[s].push(c);
        }
        let control_bytes: usize = members
            .iter()
            .map(|m| WaitSetRoot::bytes_needed(m.len().max(1)))
            .sum();
        let control = Arc::new(ShmArena::new(control_bytes)?);
        let waitsets = members
            .iter()
            .enumerate()
            .map(|(s, m)| WaitSetRoot::create_in(&control, m.len().max(1), s as u32))
            .collect::<Result<Vec<_>, _>>()?;
        let channels = (0..cfg.n_clients)
            .map(|c| {
                Channel::create(&ChannelConfig {
                    queue_capacity: cfg.queue_capacity,
                    sem_base: (cfg.n_shards + 2 * c) as u32,
                    queue_kind: cfg.queue_kind,
                    ..ChannelConfig::new(1)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let session = (0..cfg.n_clients).map(|_| AtomicU32::new(0)).collect();
        Ok(ShardedServer {
            cfg,
            control,
            waitsets,
            channels,
            members,
            route,
            session,
        })
    }

    /// The configuration the topology was built from.
    pub fn config(&self) -> &ShardedConfig {
        &self.cfg
    }

    /// Shard `s`'s WaitSet.
    ///
    /// # Panics
    ///
    /// If `s` is out of range.
    pub fn waitset(&self, s: usize) -> WaitSet<'_> {
        WaitSet::attach(&self.control, self.waitsets[s])
    }

    /// Client `c`'s private channel (diagnostics / custom protocols).
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    pub fn channel(&self, c: u32) -> &Channel {
        &self.channels[c as usize]
    }

    /// The shard client `c` is routed to.
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    pub fn shard_for(&self, c: u32) -> usize {
        self.route[c as usize].0 as usize
    }

    /// Client ids routed to shard `s` (slot order).
    ///
    /// # Panics
    ///
    /// If `s` is out of range.
    pub fn shard_members(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// Builds the client-side handle for client `c`.
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    pub fn client<'a, O: OsServices>(&'a self, os: &'a O, c: u32) -> MuxClient<'a, O> {
        assert!((c as usize) < self.cfg.n_clients, "client id out of range");
        MuxClient { srv: self, os, c }
    }

    /// Queued request backlog across shard `s`'s live sources (the
    /// overload signal work-stealing keys on).
    pub fn shard_backlog(&self, s: usize) -> usize {
        self.members[s]
            .iter()
            .filter(|&&c| self.session[c as usize].load(Ordering::Acquire) == 0)
            .map(|&c| self.channels[c as usize].receive_queue().queued_len())
            .sum()
    }

    /// Marks client `c` gone; `true` the first time (the one transition
    /// that may decrement a worker's live count).
    fn retire(&self, c: u32) -> bool {
        self.session[c as usize].swap(1, Ordering::AcqRel) == 0
    }

    fn live_members(&self, s: usize) -> usize {
        self.members[s]
            .iter()
            .filter(|&&c| self.session[c as usize].load(Ordering::Acquire) == 0)
            .count()
    }

    /// Fallible reply to client `c`, with the same peer-death handling as
    /// the resilient server's reply path.
    fn reply_to<O: OsServices>(&self, os: &O, c: u32, msg: Message) -> Result<(), IpcError> {
        let ch = &self.channels[c as usize];
        let rq = ch.reply_queue(0);
        if !rq.consumer_alive() {
            os.record(ProtoEvent::PeerDeathDetected);
            rq.poison(os);
            return Err(IpcError::PeerDead);
        }
        if rq.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        let deadline = Deadline::new(os, self.cfg.heartbeat);
        enqueue_or_sleep_deadline(&rq, os, msg, &deadline)?;
        rq.wake_consumer(os);
        Ok(())
    }

    /// Drains every queued request of one claimed source (shard `s`, slot
    /// `slot`), replying per message. Called by the slot's owner after a
    /// wait, or by a thief after stealing the slot.
    fn drain_source<O: OsServices>(
        &self,
        os: &O,
        s: usize,
        slot: usize,
        handler: &mut impl FnMut(Message) -> Message,
        run: &mut ServerRun,
    ) {
        let c = self.members[s][slot];
        let ch = &self.channels[c as usize];
        let rcv = ch.receive_queue();
        if rcv.is_poisoned() {
            if self.retire(c) {
                run.reaped += 1;
            }
            return;
        }
        while let Some(m) = rcv.try_dequeue(os) {
            // `m.channel` crossed the trust boundary; within a private
            // single-client channel only 0 is well-formed.
            if m.channel != 0 {
                os.record(ProtoEvent::MalformedRequest);
                run.malformed += 1;
                continue;
            }
            os.charge(Cost::Request);
            run.processed += 1;
            if m.opcode == opcode::DISCONNECT {
                if self.retire(c) {
                    run.disconnects += 1;
                }
                let _ = self.reply_to(os, c, m);
            } else {
                let mut ans = handler(m);
                ans.channel = 0;
                // `aux` is the mux layer's correlation tag: it crosses
                // the channel verbatim so a retrying client can match a
                // reply to the attempt that asked for it — handlers
                // answer in `opcode`/`value`.
                ans.aux = m.aux;
                match self.reply_to(os, c, ans) {
                    Ok(()) => {}
                    Err(IpcError::PeerDead) | Err(IpcError::Poisoned) => {
                        if self.retire(c) {
                            run.reaped += 1;
                        }
                        return;
                    }
                    Err(_) => {} // QueueFull/Timeout: reply dropped, the
                                 // client's own deadline machinery recovers
                }
            }
        }
    }

    /// The heartbeat liveness scan over shard `s`'s sources — the
    /// per-source form of
    /// [`run_resilient_server`](crate::run_resilient_server)'s reap pass.
    fn scan_shard<O: OsServices>(&self, os: &O, s: usize, run: &mut ServerRun) {
        for &c in &self.members[s] {
            if self.session[c as usize].load(Ordering::Acquire) != 0 {
                continue;
            }
            let ch = &self.channels[c as usize];
            ch.receive_queue().beat();
            let rq = ch.reply_queue(0);
            if !rq.consumer_alive() {
                os.record(ProtoEvent::PeerDeathDetected);
                rq.poison(os);
                if self.retire(c) {
                    run.reaped += 1;
                }
            } else if (rq.is_poisoned() || ch.receive_queue().is_poisoned()) && self.retire(c) {
                run.reaped += 1;
            }
        }
    }

    /// Idle-time work stealing: if a sibling shard's backlog exceeds the
    /// threshold, claim one of its ready sources and drain it here.
    /// Bounded to one steal per idle pass so a thief cannot wedge its own
    /// shard's heartbeat duties.
    fn try_steal<O: OsServices>(
        &self,
        os: &O,
        me: usize,
        handler: &mut impl FnMut(Message) -> Message,
        run: &mut ServerRun,
    ) {
        let k = self.cfg.n_shards;
        if k <= 1 {
            return;
        }
        for d in 1..k {
            let victim = (me + d) % k;
            if self.shard_backlog(victim) <= self.cfg.steal_threshold {
                continue;
            }
            let mut cursor = 0;
            if let Some(slot) = self.waitset(victim).poll(&mut cursor) {
                os.record(ProtoEvent::WorkStolen);
                self.drain_source(os, victim, slot, handler, run);
            }
            return;
        }
    }

    /// Runs shard `s`'s worker loop until every member has disconnected
    /// or been reaped: wait on the shard's WaitSet (bounded by the
    /// heartbeat), drain the claimed source, and on each expiry run the
    /// liveness scan plus the work-stealing check. One worker per shard —
    /// the WaitSet has a single-waiter contract (thieves only `poll`,
    /// never sleep on a sibling's doorbell).
    pub fn run_worker<O: OsServices>(
        &self,
        os: &O,
        s: usize,
        handler: impl FnMut(Message) -> Message,
    ) -> ServerRun {
        self.run_worker_observed(os, s, None, handler)
    }

    /// [`Self::run_worker`] publishing into a telemetry slot: each
    /// heartbeat expiry and every 64th request the worker's counter
    /// window, the shard's queued backlog (`queue_depth`), its live
    /// member count (`waiters`), and its processed total (`progress`)
    /// land in the slot — only the worker's own cache-line-padded slot
    /// is written, so the hot path stays write-free for readers.
    pub fn run_worker_observed<O: OsServices>(
        &self,
        os: &O,
        s: usize,
        telemetry: Option<&crate::telemetry::TelemetryWriter>,
        mut handler: impl FnMut(Message) -> Message,
    ) -> ServerRun {
        let mut run = ServerRun::default();
        let start = os.metrics().map(|m| m.snapshot()).unwrap_or_default();
        for &c in &self.members[s] {
            self.channels[c as usize].register_server_task(os.task_id());
        }
        let publish = |run: &ServerRun| {
            if let Some(w) = telemetry {
                let now = os.metrics().map(|m| m.snapshot()).unwrap_or_default();
                let snap = now.diff(&start);
                w.set_queue_depth(self.shard_backlog(s) as u64);
                w.set_waiters(self.live_members(s) as u64);
                w.set_progress(run.processed);
                w.set_slots_leaked(snap.slots_leaked);
                w.publish(&snap);
            }
        };
        let ws = self.waitset(s);
        let mut cursor = 0usize;
        publish(&run);
        while self.live_members(s) > 0 {
            match ws.wait_deadline(os, &mut cursor, self.cfg.heartbeat) {
                Ok(slot) => {
                    let before = run.processed;
                    self.drain_source(os, s, slot, &mut handler, &mut run);
                    if run.processed / 64 != before / 64 {
                        publish(&run);
                    }
                }
                Err(IpcError::Timeout) => {
                    self.scan_shard(os, s, &mut run);
                    self.try_steal(os, s, &mut handler, &mut run);
                    publish(&run);
                }
                Err(_) => break,
            }
        }
        run.metrics = os
            .metrics()
            .map(|m| m.snapshot())
            .unwrap_or_default()
            .diff(&start);
        publish(&run);
        run
    }
}

/// Client-side handle into a [`ShardedServer`]: the multiplexed
/// counterpart of [`ClientEndpoint`](crate::ClientEndpoint). Requests go
/// enqueue → [`WaitSet::notify`]; replies follow the unchanged Fig. 5
/// blocking discipline on the client's private reply queue.
pub struct MuxClient<'a, O: OsServices> {
    srv: &'a ShardedServer,
    os: &'a O,
    c: u32,
}

impl<O: OsServices> MuxClient<'_, O> {
    /// This client's id.
    pub fn id(&self) -> u32 {
        self.c
    }

    /// Synchronous `Send` through the client's shard. Feeds the
    /// round-trip latency sketch when the backend collects metrics,
    /// like [`ClientEndpoint::call`](crate::ClientEndpoint::call).
    pub fn call(&self, mut msg: Message) -> Message {
        msg.channel = 0;
        let ch = &self.srv.channels[self.c as usize];
        let (shard, slot) = self.srv.route[self.c as usize];
        let start = match self.os.metrics() {
            Some(_) => self.os.now_nanos(),
            None => None,
        };
        self.os.trace(TracePoint::Begin(Span::RoundTrip));
        enqueue_or_sleep(&ch.receive_queue(), self.os, msg);
        self.srv
            .waitset(shard as usize)
            .notify(self.os, slot as usize);
        let reply = blocking_dequeue(&ch.reply_queue(0), self.os, || {});
        self.os.trace(TracePoint::End(Span::RoundTrip));
        if let (Some(t0), Some(m)) = (start, self.os.metrics()) {
            if let Some(t1) = self.os.now_nanos() {
                m.record_latency_nanos(t1.saturating_sub(t0));
            }
        }
        reply
    }

    /// Fallible synchronous `Send`, bounded by `timeout`, with the same
    /// failure semantics as
    /// [`ClientEndpoint::call_deadline`](crate::ClientEndpoint::call_deadline):
    /// poisoned channels fail fast, expiry before the request is in
    /// flight is retryable, expiry afterwards poisons the client's reply
    /// queue (and detects a dead server via the liveness word).
    ///
    /// # Errors
    ///
    /// [`IpcError::Poisoned`], [`IpcError::QueueFull`],
    /// [`IpcError::Timeout`], or [`IpcError::PeerDead`] as above.
    pub fn call_deadline(&self, mut msg: Message, timeout: Duration) -> Result<Message, IpcError> {
        msg.channel = 0;
        self.attempt(msg, timeout, None, true)
    }

    /// One bounded call attempt — the shared body of [`Self::call_deadline`]
    /// (which poisons on expiry, keeping its documented semantics) and
    /// [`Self::call_retry`] (whose inner attempts must NOT poison: the
    /// queue has to stay usable for the next attempt).
    ///
    /// `want_aux` filters replies by correlation tag: a reply carrying a
    /// different tag is a late answer to an earlier, timed-out attempt —
    /// recognizably stale, silently discarded, and the wait continues on
    /// the same deadline.
    fn attempt(
        &self,
        msg: Message,
        timeout: Duration,
        want_aux: Option<u64>,
        poison_on_timeout: bool,
    ) -> Result<Message, IpcError> {
        let ch = &self.srv.channels[self.c as usize];
        let (shard, slot) = self.srv.route[self.c as usize];
        let srv_q = ch.receive_queue();
        let rq = ch.reply_queue(0);
        if ch.is_stale() {
            return Err(IpcError::StaleGeneration);
        }
        if srv_q.is_poisoned() || rq.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        let deadline = Deadline::new(self.os, timeout);
        enqueue_or_sleep_deadline(&srv_q, self.os, msg, &deadline)?;
        self.srv
            .waitset(shard as usize)
            .notify(self.os, slot as usize);
        loop {
            return match blocking_dequeue_deadline(&rq, self.os, &deadline, || {}) {
                Ok(reply) => {
                    if want_aux.is_some_and(|w| reply.aux != w) {
                        continue;
                    }
                    Ok(reply)
                }
                Err(IpcError::Timeout) => {
                    if !srv_q.consumer_alive() {
                        self.os.record(ProtoEvent::PeerDeathDetected);
                        rq.poison(self.os);
                        srv_q.poison(self.os);
                        Err(IpcError::PeerDead)
                    } else {
                        if poison_on_timeout {
                            rq.poison(self.os);
                        }
                        Err(IpcError::Timeout)
                    }
                }
                Err(IpcError::Poisoned) => {
                    if !srv_q.consumer_alive() {
                        self.os.record(ProtoEvent::PeerDeathDetected);
                        Err(IpcError::PeerDead)
                    } else {
                        Err(IpcError::Poisoned)
                    }
                }
                Err(e) => Err(e),
            };
        }
    }

    /// [`Self::call_deadline`] with bounded, jittered-exponential-backoff
    /// retries — the pattern every caller of a fallible IPC path was
    /// re-implementing by hand, now with the failure taxonomy enforced:
    ///
    /// * **Retried**: [`IpcError::Timeout`] only — the one verdict that
    ///   means "the server may merely be slow". Inner attempts do *not*
    ///   poison the reply queue (unlike a bare `call_deadline`), so the
    ///   channel stays usable between attempts.
    /// * **Fail fast**: [`IpcError::PeerDead`], [`IpcError::Poisoned`],
    ///   [`IpcError::StaleGeneration`] (a takeover happened under this
    ///   handle — retrying cannot help; revalidate instead), and
    ///   [`IpcError::QueueFull`] propagate on first occurrence.
    /// * **Exhaustion**: after `attempts` timeouts the reply queue is
    ///   poisoned (now the caller *has* given up) and
    ///   [`IpcError::RetriesExhausted`] is returned.
    ///
    /// Each attempt is stamped with a fresh correlation tag in `aux` (the
    /// caller's `aux` is not preserved); the mux server echoes the tag,
    /// so a late reply to a timed-out attempt is discarded instead of
    /// being mistaken for the current attempt's answer — re-sends cannot
    /// pair the wrong reply with the wrong request.
    ///
    /// Pacing: attempt `i` is preceded by a sleep drawn uniformly from
    /// `[T·2ⁱ⁻¹/16, T·2ⁱ⁻¹/8)` (capped at `T`, where `T` is
    /// `attempt_timeout`) — exponential so persistent overload sheds
    /// load, jittered (xorshift seeded from the shared monotonic clock)
    /// so a cohort of clients that timed out together does not re-send in
    /// lockstep. The sleep is host time even on simulated backends; only
    /// pacing depends on it, never correctness. Retries are observable as
    /// [`ProtoEvent::RetryAttempted`] / [`ProtoEvent::RetryExhausted`].
    ///
    /// # Errors
    ///
    /// As classified above.
    ///
    /// # Panics
    ///
    /// If `attempts` is zero.
    pub fn call_retry(
        &self,
        mut msg: Message,
        attempt_timeout: Duration,
        attempts: u32,
    ) -> Result<Message, IpcError> {
        assert!(attempts >= 1, "call_retry needs at least one attempt");
        msg.channel = 0;
        let mut rng = monotonic_nanos() | 1;
        let mut next_rand = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for i in 0..attempts {
            if i > 0 {
                self.os.record(ProtoEvent::RetryAttempted);
                let full = attempt_timeout
                    .saturating_mul(1u32 << (i - 1).min(3))
                    .min(attempt_timeout.saturating_mul(8))
                    / 8;
                let nanos = full.min(attempt_timeout).as_nanos().max(2) as u64;
                std::thread::sleep(Duration::from_nanos(nanos / 2 + next_rand() % (nanos / 2)));
            }
            msg.aux = next_rand();
            match self.attempt(msg, attempt_timeout, Some(msg.aux), false) {
                Err(IpcError::Timeout) => continue,
                verdict => return verdict,
            }
        }
        // Only final exhaustion poisons: the server must stop burning
        // work on a caller that has, as of now, definitively given up.
        self.srv.channels[self.c as usize]
            .reply_queue(0)
            .poison(self.os);
        self.os.record(ProtoEvent::RetryExhausted);
        Err(IpcError::RetriesExhausted)
    }

    /// Convenience: ECHO round trip, returning the echoed value.
    pub fn echo(&self, value: f64) -> f64 {
        self.call(Message::echo(0, value)).value
    }

    /// Sends the disconnect message and waits for the final reply.
    pub fn disconnect(&self) {
        let _ = self.call(Message::disconnect(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NativeConfig, NativeOs};

    fn native(n_sems: usize) -> Arc<NativeOs> {
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = n_sems;
        cfg.n_msgqs = 0;
        NativeOs::new(cfg)
    }

    #[test]
    fn notify_is_edge_triggered_and_coalesces() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(4)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 4, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);

        // First edge rings; every further notify — same source (level
        // held) or new source (latch held) — coalesces.
        ws.notify(&os, 1);
        ws.notify(&os, 1);
        ws.notify(&os, 2);
        ws.notify(&os, 3);
        let m = os.metrics().unwrap().snapshot();
        assert_eq!(m.doorbells_rung, 1);
        assert_eq!(m.doorbells_coalesced, 3);

        // One pass drains all three ready sources round-robin; `wait`
        // polls before sleeping, so no kernel trip is needed at all.
        let mut cursor = 0;
        assert_eq!(ws.wait(&os, &mut cursor), 1);
        assert_eq!(ws.poll(&mut cursor), Some(2));
        assert_eq!(ws.poll(&mut cursor), Some(3));
        assert_eq!(ws.poll(&mut cursor), None);
        assert_eq!(os.metrics().unwrap().snapshot().waitset_wakes, 0);

        // The ring's credit is still banked and the latch still held: a
        // bounded wait absorbs it as one spurious wake (closing the
        // cycle), then expires empty.
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_millis(50)),
            Err(IpcError::Timeout)
        );
        let m = os.metrics().unwrap().snapshot();
        assert_eq!(m.waitset_wakes, 1);
        assert!(m.doorbells_rung <= m.waitset_wakes + 1);

        // The cycle closed: the next edge rings again and is found.
        ws.notify(&os, 0);
        assert_eq!(os.metrics().unwrap().snapshot().doorbells_rung, 2);
        assert_eq!(ws.wait(&os, &mut cursor), 0);
    }

    #[test]
    fn poll_is_round_robin_fair() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(3)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 3, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);

        // All ready; the cursor must rotate 0, 1, 2 — not re-pick 0.
        for s in 0..3 {
            ws.notify(&os, s);
        }
        let mut cursor = 0;
        assert_eq!(ws.poll(&mut cursor), Some(0));
        for s in 0..3 {
            ws.notify(&os, s);
        }
        assert_eq!(ws.poll(&mut cursor), Some(1));
        assert_eq!(ws.poll(&mut cursor), Some(2));
        assert_eq!(ws.poll(&mut cursor), Some(0));
    }

    #[test]
    fn wait_deadline_times_out_clean() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(2)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 2, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);
        let mut cursor = 0;
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_millis(5)),
            Err(IpcError::Timeout)
        );
        // The expiry consumed nothing: a subsequent notify still rings
        // and is still found.
        ws.notify(&os, 1);
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_secs(5)),
            Ok(1)
        );
    }

    #[test]
    fn waitset_fsck_rebuilds_wake_state() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(3)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 3, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);
        // Fully closes a claimed wake cycle the way a live waiter loop
        // does across its next block: the `P` takes the banked credit and
        // the post-wake store clears the latch. (`wait` polls first, so a
        // claim of an already-ready source leaves both in place.)
        let close = |expect_credit: bool| {
            assert_eq!(
                os.sem_p_deadline(ws.doorbell_sem(), Duration::ZERO),
                expect_credit
            );
            ws.root.pending.store(0, Ordering::SeqCst);
        };

        // Consistent idle waitset: strict no-op.
        assert_eq!(ws.fsck(&os, |_| false), WaitSetFsck::default());

        // Consistent *ready* cycle (edge raised, latch held, one credit
        // banked): also a no-op — the banked credit is absorbed and
        // re-posted, netting to zero — and the cycle still works.
        ws.notify(&os, 2);
        assert_eq!(ws.fsck(&os, |s| s == 2), WaitSetFsck::default());
        let mut cursor = 0;
        assert_eq!(ws.wait(&os, &mut cursor), 2);
        close(true);

        // A waiter that died between claiming the edge (its wake `P` had
        // consumed the credit and reopened the cycle) and draining the
        // source: ready word down, latch clear, no credit — yet the
        // backlog is real. fsck must resurrect the whole cycle.
        ws.notify(&os, 1);
        assert_eq!(ws.wait(&os, &mut cursor), 1);
        close(true); // ...and the waiter "dies" here, backlog undrained
        let r = ws.fsck(&os, |s| s == 1);
        assert_eq!(
            r,
            WaitSetFsck {
                ready_raised: 1,
                latch_repaired: true,
                doorbell_rung: true,
                ..WaitSetFsck::default()
            }
        );
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_secs(5)),
            Ok(1),
            "resurrected cycle must wake a successor"
        );
        close(true);

        // A stale edge over a drained source plus its banked credit: both
        // absorbed, latch released.
        ws.notify(&os, 0);
        let r = ws.fsck(&os, |_| false);
        assert_eq!(
            r,
            WaitSetFsck {
                ready_cleared: 1,
                credits_absorbed: 1,
                latch_repaired: true,
                ..WaitSetFsck::default()
            }
        );
        // Second pass on the now-consistent state: idempotent, and no
        // credit survived the absorption.
        assert_eq!(ws.fsck(&os, |_| false), WaitSetFsck::default());
        close(false);
    }

    fn native_for(srv: &ShardedServer) -> Arc<NativeOs> {
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = srv.config().n_sems();
        cfg.n_msgqs = 0;
        NativeOs::new(cfg)
    }

    #[test]
    fn call_retry_first_attempt_success_needs_no_retries() {
        let cfg = ShardedConfig {
            heartbeat: Duration::from_millis(5),
            ..ShardedConfig::new(2, 1)
        };
        let srv = Arc::new(ShardedServer::create(cfg).unwrap());
        let os = native_for(&srv);
        let worker = {
            let srv = Arc::clone(&srv);
            let os = os.task(0);
            std::thread::spawn(move || srv.run_worker(&os, 0, |m| m))
        };

        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);
        let reply = c0
            .call_retry(Message::echo(0, 9.0), Duration::from_secs(5), 3)
            .expect("healthy server answers on the first attempt");
        assert_eq!(reply.value, 9.0);
        c0.disconnect();
        srv.client(&t1, 1).disconnect();
        worker.join().unwrap();

        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 0);
        assert_eq!(m.retries_exhausted, 0);
    }

    #[test]
    fn call_retry_exhausts_then_poisons_against_a_silent_server() {
        // No worker at all: every attempt times out (the server is
        // "wedged", not provably dead — its liveness word still reads
        // alive), so the taxonomy says retry, retry, then give up.
        let srv = Arc::new(ShardedServer::create(ShardedConfig::new(1, 1)).unwrap());
        let os = native_for(&srv);
        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);

        let err = c0
            .call_retry(Message::echo(0, 1.0), Duration::from_millis(2), 3)
            .unwrap_err();
        assert_eq!(err, IpcError::RetriesExhausted);
        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 2, "attempts 2 and 3 are retries");
        assert_eq!(m.retries_exhausted, 1);

        // Inner attempts did not poison — only the final exhaustion did,
        // and from here on the failure is fail-fast, not retried.
        assert!(srv.channel(0).reply_queue(0).is_poisoned());
        assert_eq!(
            c0.call_retry(Message::echo(0, 2.0), Duration::from_millis(2), 3)
                .unwrap_err(),
            IpcError::Poisoned
        );
        assert_eq!(
            os.metrics().unwrap().task_snapshot(1).retries_attempted,
            2,
            "fail-fast verdicts must not burn retry attempts"
        );
    }

    #[test]
    fn call_retry_fails_fast_on_stale_generation() {
        let srv = Arc::new(ShardedServer::create(ShardedConfig::new(1, 1)).unwrap());
        let os = native_for(&srv);
        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);

        // A takeover happened under this handle: retrying cannot help,
        // the caller must revalidate, so not one attempt is spent.
        srv.channel(0).arena().bump_generation();
        assert_eq!(
            c0.call_retry(Message::echo(0, 3.0), Duration::from_secs(1), 5)
                .unwrap_err(),
            IpcError::StaleGeneration
        );
        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 0);
        assert_eq!(m.retries_exhausted, 0);

        // Revalidation adopts the new incarnation and the queue was
        // never poisoned by the stale refusals.
        srv.channel(0).revalidate();
        assert!(!srv.channel(0).reply_queue(0).is_poisoned());
    }

    #[test]
    fn hash_routing_covers_all_shards() {
        let srv =
            ShardedServer::create(ShardedConfig::new(64, 4)).expect("create sharded topology");
        // Every client routed, every shard populated, slots consistent.
        for c in 0..64u32 {
            let s = srv.shard_for(c);
            assert!(srv.shard_members(s).contains(&c));
        }
        for s in 0..4 {
            assert!(
                !srv.shard_members(s).is_empty(),
                "hash left shard {s} empty"
            );
        }
        let total: usize = (0..4).map(|s| srv.shard_members(s).len()).sum();
        assert_eq!(total, 64);
    }
}
