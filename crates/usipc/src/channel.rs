//! The shared-memory channel: server receive queue, per-client reply
//! queues, message pool, and the `awake` flags of the sleep/wake-up
//! protocols.
//!
//! §2.1: "The implementation ... uses two queues: a receive queue at the
//! server for incoming messages, and a reply queue for responses back to
//! the client. If multiple clients want to connect to the server, the
//! single receive queue is still adequate but a reply queue per client is
//! required. In this case, each client request should include the number of
//! the reply queue to be used for the response." That is exactly the layout
//! of [`ChannelRoot`].

use crate::metrics::ProtoEvent;
use crate::msg::{Message, MsgSlot};
use crate::platform::{client_sem, server_sem, Cost, OsServices};
use crate::protocol::WaitStrategy;
use crate::trace::{Span, TracePoint};
use core::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use usipc_queue::{AnyShmFifo, EnqueueFlow, QueueKind, RingMode, RingReclaim, ShmRing};
use usipc_shm::{CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice, SlotPool};

/// A FIFO queue plus the sleep/wake-up state of its single consumer: the
/// `awake` flag the protocols test-and-set. The counting semaphore the
/// consumer sleeps on is kernel state, named by the position-derived
/// convention of [`platform`](crate::platform) rather than stored here.
///
/// The `awake` flag gets its own cache line: every producer `tas`es it on
/// every wake-up check while the consumer hammers the adjacent queue
/// handle and, in the reply-queue array, the next client's state starts
/// right after — without the padding each `tas` would ping-pong a line that
/// innocent bystanders are reading. (`CacheAligned` also makes the struct
/// 64-aligned, so consecutive elements of the reply `ShmSlice` never share
/// a line either.)
#[repr(C)]
#[derive(Debug)]
pub struct WaitableQueue {
    queue: AnyShmFifo,
    awake: CacheAligned<AtomicU32>,
    fault: CacheAligned<FaultHeader>,
}

/// The failure-model words of one queue (see DESIGN.md, "Failure model").
/// They live on their own cache line so that fault bookkeeping — touched
/// only on slow paths and by heartbeats — never contends with the `awake`
/// flag the fast path test-and-sets.
#[repr(C)]
#[derive(Debug)]
pub struct FaultHeader {
    /// Sticky poison flag: once set it is never cleared, so a fallible
    /// caller that observes it can trust the channel is dead for good.
    poison: AtomicU32,
    /// Consumer liveness: `1` while the consumer is considered alive,
    /// `0` once its death has been marked (by its own unwind guard on
    /// native, or by a fault plan in the simulator).
    consumer_live: AtomicU32,
    /// Consumer heartbeat epoch: bumped by the consumer each time it
    /// passes through its receive loop. A survivor that watches this word
    /// across a deadline period can bound detection latency even when
    /// death was never marked explicitly.
    heartbeat: AtomicU32,
    /// Set once a resilient server took the consumer's DISCONNECT: the
    /// session is over, and a successor incarnation must not wait for a
    /// goodbye that was already said. Survives fsck.
    departed: AtomicU32,
}

unsafe impl ShmSafe for WaitableQueue {}

impl WaitableQueue {
    /// Creates a queue (with its `awake` flag initially set) in `arena`.
    /// `kind` selects the implementation; `mode` is the ring's producer
    /// topology (ignored for the two-lock kind): the shared receive queue
    /// is multi-producer, a reply queue has one producer at a time (the
    /// server — or a work-stealing thief, but hand-overs are ordered by
    /// the client's own round-trip: the thief only holds the request
    /// because it dequeued what the client enqueued *after* consuming the
    /// previous reply).
    pub(crate) fn create(
        arena: &ShmArena,
        capacity: usize,
        kind: QueueKind,
        mode: RingMode,
    ) -> Result<Self, ShmError> {
        Ok(WaitableQueue {
            queue: AnyShmFifo::create(arena, capacity, kind, mode)?,
            awake: CacheAligned::new(AtomicU32::new(1)),
            fault: CacheAligned::new(FaultHeader {
                poison: AtomicU32::new(0),
                consumer_live: AtomicU32::new(1),
                heartbeat: AtomicU32::new(0),
                departed: AtomicU32::new(0),
            }),
        })
    }
}

/// Root structure of one client/server channel, published in the arena so
/// that every attaching party finds the same queues.
#[repr(C)]
#[derive(Debug)]
pub struct ChannelRoot {
    /// The server's receive queue.
    receive: WaitableQueue,
    /// One reply queue per client.
    reply: ShmSlice<WaitableQueue>,
    /// Shared pool of fixed-size message slots.
    pool: SlotPool<MsgSlot>,
    n_clients: u32,
    /// First platform semaphore index this channel uses (see
    /// [`ChannelConfig::with_sem_base`]); `server_sem()`/`client_sem(c)`
    /// are offsets from it.
    sem_base: u32,
    /// Platform task number of the server (hand-off target), `u32::MAX`
    /// until the server registers.
    server_task: AtomicU32,
}

unsafe impl ShmSafe for ChannelRoot {}

/// Sizing parameters for a channel.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Number of clients (and hence reply queues).
    pub n_clients: usize,
    /// Capacity of each queue (requests outstanding before flow control).
    pub queue_capacity: usize,
    /// Additional arena bytes reserved for structures the application
    /// co-locates with the channel (e.g. a [`BulkPool`](crate::BulkPool),
    /// sized via [`BulkPool::bytes_needed`](crate::BulkPool::bytes_needed)).
    /// The channel's own allocations are sized exactly, so co-located data
    /// must be declared here rather than borrowed from slack.
    pub extra_bytes: usize,
    /// First platform semaphore index the channel's queues use: the
    /// server's receive semaphore is `sem_base + server_sem()` and client
    /// `c`'s reply semaphore is `sem_base + client_sem(c)`. Defaults to 0
    /// (a single channel owning the whole semaphore table, the historical
    /// layout); multiple channels sharing one platform — the WaitSet
    /// multiplexing topology — give each channel a disjoint block so
    /// their semaphores never alias.
    pub sem_base: u32,
    /// Which queue implementation every queue of this channel uses:
    /// [`QueueKind::TwoLock`] (the paper's baseline, the default) or
    /// [`QueueKind::Ring`] (lock-free — a SIGKILLed producer can never
    /// wedge survivors on an abandoned lock). The same protocol code runs
    /// on both; flow-control signals are identical.
    pub queue_kind: QueueKind,
    /// Worst-case number of *concurrent dequeuers per queue* the
    /// deployment can produce. The default of 2 covers every shipped
    /// topology: a queue's single consumer plus one concurrent fault-path
    /// drainer (poisoner or work-stealing thief). [`Channel::create`]
    /// rejects values above [`usipc_queue::POOL_SLACK`], because the
    /// two-lock queue's "full means full" exactness contract only holds
    /// while dequeuers-in-flight cannot exhaust the node pool's slack.
    pub max_dequeuers: usize,
}

impl ChannelConfig {
    /// A channel for `n_clients` clients with the default queue depth.
    pub fn new(n_clients: usize) -> Self {
        ChannelConfig {
            n_clients,
            queue_capacity: 64,
            extra_bytes: 0,
            sem_base: 0,
            queue_kind: QueueKind::TwoLock,
            max_dequeuers: 2,
        }
    }

    /// Reserves `bytes` of arena space for co-located application data.
    #[must_use]
    pub fn with_extra_bytes(mut self, bytes: usize) -> Self {
        self.extra_bytes = bytes;
        self
    }

    /// Places the channel's semaphores at `base` in the platform's
    /// semaphore table (see [`ChannelConfig::sem_base`]).
    #[must_use]
    pub fn with_sem_base(mut self, base: u32) -> Self {
        self.sem_base = base;
        self
    }

    /// Selects the queue implementation (see [`ChannelConfig::queue_kind`]).
    #[must_use]
    pub fn with_queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Arena bytes this channel needs — the exact sizing
    /// [`Channel::create`] uses, exposed so a caller building its *own*
    /// arena (e.g. a memfd segment that also holds the semaphore table and
    /// a bootstrap root) can budget for a [`Channel::create_in`].
    ///
    /// Derived from the actual types, allocation by allocation (each
    /// helper already includes its own worst-case alignment slack): the
    /// message pool, one `ShmQueue` per queue, the reply-queue array, and
    /// the root. No magic constants — a large config neither exhausts the
    /// arena nor over-allocates.
    pub fn bytes_needed(&self) -> usize {
        let queues = self.n_clients + 1;
        // Every in-flight message holds a pool slot; the worst case is all
        // queues simultaneously full. The ring rounds its capacity up to a
        // power of two and can really hold that many, so the pool must be
        // budgeted against the *effective* capacity.
        let per_queue_slots = match self.queue_kind {
            QueueKind::TwoLock => self.queue_capacity,
            QueueKind::Ring => ShmRing::effective_capacity(self.queue_capacity),
        };
        let pool_slots = queues * per_queue_slots + 8;
        SlotPool::<MsgSlot>::bytes_needed(pool_slots)
            + queues * AnyShmFifo::bytes_needed(self.queue_capacity, self.queue_kind)
            + self.n_clients * core::mem::size_of::<WaitableQueue>()
            + core::mem::align_of::<WaitableQueue>()
            + core::mem::size_of::<ChannelRoot>()
            + core::mem::align_of::<ChannelRoot>()
            + self.extra_bytes
    }
}

/// Host-side handle to a channel (owns the arena; clone freely).
///
/// Besides the arena and root offset, the handle carries a process-local
/// *generation stamp*: the segment generation
/// ([`ShmArena::generation`]) observed when this handle was built. A
/// successor server that takes over a crashed segment bumps the segment
/// generation after repairing it (see [`recover`](crate::recover)), which
/// makes every handle stamped under the old incarnation *stale*: its
/// fallible calls fail fast with
/// [`IpcError::StaleGeneration`](crate::fault::IpcError::StaleGeneration)
/// instead of operating on state that was audited — and possibly
/// repaired — out from under them. A stale holder opts back in explicitly
/// with [`Channel::revalidate`]. Clones share one stamp, so revalidating
/// any clone revalidates them all.
#[derive(Debug, Clone)]
pub struct Channel {
    arena: Arc<ShmArena>,
    root: ShmPtr<ChannelRoot>,
    /// Segment generation this handle considers current (shared across
    /// clones within the process; *not* segment state).
    stamp: Arc<AtomicU32>,
}

impl Channel {
    /// Creates the arena and channel structures for `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion (the arena is sized from the config, so
    /// this only fires for absurd configurations).
    pub fn create(cfg: &ChannelConfig) -> Result<Channel, ShmError> {
        let arena = Arc::new(ShmArena::new(cfg.bytes_needed())?);
        let ch = Self::create_in(arena, cfg)?;
        ch.arena.publish_root(ch.root);
        Ok(ch)
    }

    /// Builds the channel structures inside a caller-provided arena — the
    /// entry point for a process-shared segment that co-locates more than
    /// one top-level object (semaphore table, bootstrap root, ...).
    ///
    /// Unlike [`Self::create`], the channel root is **not** published as
    /// the arena root: the caller owns the bootstrap story, embedding
    /// [`Self::root_ptr`] in whatever structure it publishes, and peers
    /// rebuild a handle with [`Self::from_root`]. Budget the arena with
    /// [`ChannelConfig::bytes_needed`].
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create_in(arena: Arc<ShmArena>, cfg: &ChannelConfig) -> Result<Channel, ShmError> {
        assert!(cfg.n_clients >= 1, "channel needs at least one client");
        assert!(cfg.queue_capacity >= 2, "queues need capacity >= 2");
        // The POOL_SLACK exactness contract (see ChannelConfig::max_dequeuers):
        // enforced here, at the only point that knows the deployment's
        // concurrency, so "enqueue said full" always means full.
        assert!(
            cfg.max_dequeuers >= 1 && cfg.max_dequeuers <= usipc_queue::POOL_SLACK,
            "max_dequeuers {} outside 1..={}: more concurrent dequeuers than \
             POOL_SLACK could exhaust the node pool and fake a full queue",
            cfg.max_dequeuers,
            usipc_queue::POOL_SLACK
        );
        let queues = cfg.n_clients + 1;
        let per_queue_slots = match cfg.queue_kind {
            QueueKind::TwoLock => cfg.queue_capacity,
            QueueKind::Ring => ShmRing::effective_capacity(cfg.queue_capacity),
        };
        let pool_slots = queues * per_queue_slots + 8;
        let pool = SlotPool::create(&arena, pool_slots, |_| MsgSlot::default())?;

        let receive =
            WaitableQueue::create(&arena, cfg.queue_capacity, cfg.queue_kind, RingMode::Mpsc)?;
        let reply = arena.alloc_slice(cfg.n_clients, |_| {
            WaitableQueue::create(&arena, cfg.queue_capacity, cfg.queue_kind, RingMode::Spsc)
                .expect("arena sized for queues")
        })?;
        let root = arena.alloc(ChannelRoot {
            receive,
            reply,
            pool,
            n_clients: cfg.n_clients as u32,
            sem_base: cfg.sem_base,
            server_task: AtomicU32::new(u32::MAX),
        })?;
        let stamp = Arc::new(AtomicU32::new(arena.generation()));
        Ok(Channel { arena, root, stamp })
    }

    /// Rebuilds a handle from an explicit root pointer — the attaching
    /// side of [`Self::create_in`], for channels whose root was embedded
    /// in a larger bootstrap structure instead of published as the arena
    /// root. The pointer is validated (bounds, alignment) on first use.
    pub fn from_root(arena: Arc<ShmArena>, root: ShmPtr<ChannelRoot>) -> Channel {
        let stamp = Arc::new(AtomicU32::new(arena.generation()));
        Channel { arena, root, stamp }
    }

    /// This channel's root offset, for embedding in a caller-owned
    /// bootstrap structure (see [`Self::create_in`]).
    pub fn root_ptr(&self) -> ShmPtr<ChannelRoot> {
        self.root
    }

    /// Attaches to a channel previously created in `arena` (the peer's
    /// bootstrap path: a process that maps the shared segment knows only
    /// the base address and finds everything else through the published
    /// root offset).
    ///
    /// Returns `None` if no channel root was published in this arena.
    pub fn attach(arena: Arc<ShmArena>) -> Option<Channel> {
        let root: ShmPtr<ChannelRoot> = arena.root()?;
        let stamp = Arc::new(AtomicU32::new(arena.generation()));
        Some(Channel { arena, root, stamp })
    }

    fn root(&self) -> &ChannelRoot {
        self.arena.get(self.root)
    }

    /// The channel's message pool (recovery: free-list vs. reachability
    /// audit across *all* queues at once).
    pub(crate) fn msg_pool(&self) -> SlotPool<MsgSlot> {
        self.root().pool
    }

    /// The shared arena (for applications that co-locate bulk data).
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }

    /// Number of clients the channel was created for.
    pub fn n_clients(&self) -> u32 {
        self.root().n_clients
    }

    /// Which queue implementation this channel's queues run on.
    pub fn queue_kind(&self) -> QueueKind {
        self.root().receive.queue.kind()
    }

    /// Registers the server's platform task number as the hand-off target.
    pub fn register_server_task(&self, task: u32) {
        self.root().server_task.store(task, Ordering::Release);
    }

    /// The server's platform task number (`u32::MAX` if unregistered).
    pub fn server_task(&self) -> u32 {
        self.root().server_task.load(Ordering::Acquire)
    }

    /// The segment generation this handle was validated against (see the
    /// type-level docs on staleness).
    pub fn generation(&self) -> u32 {
        self.stamp.load(Ordering::Acquire)
    }

    /// The segment's *current* generation — what
    /// [`ShmArena::generation`] reports right now. Differs from
    /// [`Self::generation`] exactly when a takeover reincarnated the
    /// segment after this handle was built.
    pub fn segment_generation(&self) -> u32 {
        self.arena.generation()
    }

    /// Whether a takeover has moved the segment past this handle's
    /// incarnation. One shared-memory load plus a process-local load — no
    /// kernel entry — so fallible call paths check it on entry.
    pub fn is_stale(&self) -> bool {
        self.stamp.load(Ordering::Acquire) != self.arena.generation()
    }

    /// Accepts the segment's current incarnation: re-stamps this handle
    /// (and every clone sharing its stamp) with the live segment
    /// generation. Called by a successor after it bumps the generation,
    /// and by any stale client that has re-synchronized with the new
    /// server and wants back in. Returns the generation adopted.
    pub fn revalidate(&self) -> u32 {
        let g = self.arena.generation();
        self.stamp.store(g, Ordering::Release);
        g
    }

    /// View of the server receive queue.
    ///
    /// Raw access is public so that applications can build custom protocols
    /// over the same substrate (one of the paper's §1 motivations for
    /// user-level IPC); the shipped protocols in [`protocol`](crate::protocol)
    /// are all written against this interface.
    pub fn receive_queue(&self) -> QueueRef<'_> {
        let root = self.root();
        QueueRef {
            arena: &self.arena,
            wq: &root.receive,
            pool: root.pool,
            sem: root.sem_base + server_sem(),
        }
    }

    /// View of client `c`'s reply queue (see [`Self::receive_queue`] on raw
    /// access).
    ///
    /// # Panics
    ///
    /// If `c` is out of range. Server paths handling a *client-supplied*
    /// channel number must use [`Self::try_reply_queue`] instead: the field
    /// crosses the shared-memory trust boundary, and a hostile or corrupted
    /// value must not take the server down.
    pub fn reply_queue(&self, c: u32) -> QueueRef<'_> {
        self.try_reply_queue(c)
            .unwrap_or_else(|| panic!("client {c} out of range"))
    }

    /// Fallible view of client `c`'s reply queue: `None` when `c` names no
    /// queue. This is the only safe way to resolve a channel number read
    /// out of a request message.
    pub fn try_reply_queue(&self, c: u32) -> Option<QueueRef<'_>> {
        let root = self.root();
        if c >= root.n_clients {
            return None;
        }
        Some(QueueRef {
            arena: &self.arena,
            wq: self.arena.get(root.reply.at(c as usize)),
            pool: root.pool,
            sem: root.sem_base + client_sem(c),
        })
    }

    /// The server's death rites: marks the receive queue's consumer (the
    /// server) dead and poisons **every** queue of the channel, so each
    /// client — whether mid-enqueue, blocked on its reply semaphore, or
    /// yet to call — fails fast with
    /// [`IpcError::PeerDead`](crate::fault::IpcError::PeerDead) instead of
    /// waiting on a server that is gone. Called from the server's
    /// [`ServerDeathWatch`](crate::fault::ServerDeathWatch) unwind guard
    /// on native and from kill-injection points in the simulator.
    pub fn tombstone_server<O: OsServices>(&self, os: &O) {
        self.receive_queue().mark_consumer_dead(os);
        for c in 0..self.n_clients() {
            self.reply_queue(c).poison(os);
        }
    }

    /// Builds a client endpoint.
    pub fn client<'a, O: OsServices>(
        &'a self,
        os: &'a O,
        id: u32,
        strategy: WaitStrategy,
    ) -> ClientEndpoint<'a, O> {
        assert!(id < self.n_clients(), "client id out of range");
        ClientEndpoint {
            ch: self,
            os,
            id,
            strategy,
        }
    }

    /// Builds the server endpoint.
    pub fn server<'a, O: OsServices>(
        &'a self,
        os: &'a O,
        strategy: WaitStrategy,
    ) -> ServerEndpoint<'a, O> {
        ServerEndpoint {
            ch: self,
            os,
            strategy,
        }
    }
}

/// A resolved view of one waitable queue: the primitive layer the protocol
/// figures are written in terms of (`enqueue`, `dequeue`, `empty`, `awake`,
/// `tas`, and the consumer's semaphore).
pub struct QueueRef<'a> {
    arena: &'a ShmArena,
    wq: &'a WaitableQueue,
    pool: SlotPool<MsgSlot>,
    sem: u32,
}

impl<'a> QueueRef<'a> {
    pub(crate) fn new(
        arena: &'a ShmArena,
        wq: &'a WaitableQueue,
        pool: SlotPool<MsgSlot>,
        sem: u32,
    ) -> Self {
        QueueRef {
            arena,
            wq,
            pool,
            sem,
        }
    }
}

impl QueueRef<'_> {
    /// `enqueue(Q, msg)`: `false` means the queue is full (flow control).
    ///
    /// On the two-lock queue the tail-lock acquisition is *bounded*: if a
    /// producer was SIGKILLed inside its critical section, each attempt
    /// gives up after the yield budget and reports "full", degrading to
    /// the protocols' ordinary back-off loop — each retry is individually
    /// bounded, so the old unbounded wedge cannot recur, and the fallible
    /// paths' deadline/poison machinery eventually declares the peer dead.
    /// The ring has no locks; a poison-drain racing this enqueue may eat
    /// the claimed slot, which counts as enqueued-then-drained (dead-peer
    /// semantics), so the caller still sees `true`.
    pub fn try_enqueue<O: OsServices>(&self, os: &O, m: Message) -> bool {
        os.charge(Cost::QueueOp);
        let Some(slot) = self.pool.alloc(self.arena) else {
            return false; // pool pressure equals queue-full for callers
        };
        self.arena.get(slot).value().store(m);
        match self
            .wq
            .queue
            .try_enqueue(self.arena, slot.raw() as u64, usipc_queue::LOCK_BUDGET)
        {
            EnqueueFlow::Queued => {
                os.record(ProtoEvent::Enqueue);
                true
            }
            EnqueueFlow::Dropped => {
                // The message was accepted and immediately lost to a
                // poison-drain; free our slot (the drain never saw it).
                self.pool.free(self.arena, slot);
                os.record(ProtoEvent::Enqueue);
                true
            }
            EnqueueFlow::Full | EnqueueFlow::LockBusy => {
                self.pool.free(self.arena, slot);
                false
            }
        }
    }

    /// `dequeue(Q, msg)`: `None` means the queue is empty.
    pub fn try_dequeue<O: OsServices>(&self, os: &O) -> Option<Message> {
        os.charge(Cost::QueueOp);
        let off = self.wq.queue.dequeue(self.arena)?;
        let slot: ShmPtr<usipc_shm::PoolSlot<MsgSlot>> = ShmPtr::from_raw(off as u32);
        let m = self.arena.get(slot).value().load();
        self.pool.free(self.arena, slot);
        os.record(ProtoEvent::Dequeue);
        Some(m)
    }

    /// `empty(Q)`: the cheap poll of the BSLS spin loop.
    pub fn is_empty<O: OsServices>(&self, os: &O) -> bool {
        os.charge(Cost::Poll);
        self.wq.queue.is_empty(self.arena)
    }

    /// `Q->awake = 0` (consumer announcing it may sleep).
    pub fn clear_awake<O: OsServices>(&self, os: &O) {
        os.charge(Cost::Tas);
        self.wq.awake.store(0, Ordering::SeqCst);
    }

    /// `Q->awake = 1` (plain store after waking).
    pub fn set_awake<O: OsServices>(&self, os: &O) {
        os.charge(Cost::Tas);
        self.wq.awake.store(1, Ordering::SeqCst);
    }

    /// `tas(&Q->awake)`: sets the flag, returns whether it was already set.
    pub fn tas_awake<O: OsServices>(&self, os: &O) -> bool {
        os.charge(Cost::Tas);
        self.wq.awake.swap(1, Ordering::SeqCst) != 0
    }

    /// The consumer's semaphore index.
    pub fn sem(&self) -> u32 {
        self.sem
    }

    /// Producer-side wake-up: `if (!tas(&Q->awake)) V(Q->sem)` — only the
    /// first producer to find the flag clear posts the wake-up (the fix for
    /// Execution Interleaving 2 of Fig. 4).
    pub fn wake_consumer<O: OsServices>(&self, os: &O) {
        if !self.tas_awake(os) {
            os.sem_v(self.sem);
        }
    }

    /// Current queue length (diagnostics; the overload check of the
    /// throttled server reads this).
    pub fn queued_len(&self) -> usize {
        self.wq.queue.len(self.arena)
    }

    // --- failure model (DESIGN.md, "Failure model") -----------------------
    //
    // None of these appear on the infallible fast path: poisoning is
    // checked at fallible-call entry and on slow paths only (block commit,
    // queue-full back-off), so the BSW four-sem-ops-per-round-trip
    // accounting is untouched.

    /// Whether the channel has been poisoned. A plain shared-memory load —
    /// no kernel entry, no virtual-time charge.
    pub fn is_poisoned(&self) -> bool {
        self.wq.fault.poison.load(Ordering::Acquire) != 0
    }

    /// Poisons the queue: sets the sticky flag, force-wakes the consumer
    /// (awake flag raised *and* an unconditional `V`, so a consumer
    /// committed to blocking cannot sleep through its peer's death), and
    /// drains in-flight messages back to the slot pool so no capacity
    /// leaks. Idempotent; only the first call records
    /// [`ProtoEvent::ChannelPoisoned`] and pays the broadcast.
    pub fn poison<O: OsServices>(&self, os: &O) {
        if self.wq.fault.poison.swap(1, Ordering::AcqRel) != 0 {
            return;
        }
        os.record(ProtoEvent::ChannelPoisoned);
        // Broadcast wake-up: raise `awake` so no future clear-and-recheck
        // commits to sleep, then post a credit for any waiter already in
        // the kernel. The possible stray credit is absorbed by the
        // protocols' tas/recheck path.
        self.wq.awake.store(1, Ordering::SeqCst);
        os.sem_v(self.sem);
        self.drain(os);
    }

    /// Frees every queued message back to the slot pool (poisoned-channel
    /// cleanup; the messages are lost, which is exactly the semantics of a
    /// dead peer).
    ///
    /// Best-effort: the drain is usually run *on behalf of a dead
    /// consumer* ([`Self::mark_consumer_dead`]), and a consumer that was
    /// SIGKILLed inside its dequeue critical section left the queue's
    /// head lock held in the segment forever. Each dequeue therefore
    /// bounds its lock acquisition and the drain stops at an abandoned
    /// lock, stranding the in-flight messages and their pool slots rather
    /// than livelocking the poisoner — the channel is already poisoned,
    /// so that capacity was unreachable either way. Every slot stranded
    /// this way is *counted* ([`ProtoEvent::SlotLeaked`], surfaced as a
    /// telemetry gauge and a `usipc-top` column) so segment attrition is
    /// visible instead of silent. On the ring kind the drain additionally
    /// reclaims holes left by producers that died between claim and
    /// publish: a reclaimed-with-value hole is freed normally, a truly
    /// dead one costs exactly one counted slot.
    pub fn drain<O: OsServices>(&self, os: &O) {
        loop {
            os.charge(Cost::QueueOp);
            match self
                .wq
                .queue
                .dequeue_bounded(self.arena, usipc_queue::LOCK_BUDGET)
            {
                Ok(Some(off)) => {
                    let slot: ShmPtr<usipc_shm::PoolSlot<MsgSlot>> = ShmPtr::from_raw(off as u32);
                    self.pool.free(self.arena, slot);
                    os.record(ProtoEvent::Dequeue);
                }
                Ok(None) => match self.wq.queue.reclaim_stuck(self.arena) {
                    RingReclaim::Recovered(off) => {
                        // The "dead" producer published in the race window:
                        // the message is real, recycle it like a dequeue.
                        let slot: ShmPtr<usipc_shm::PoolSlot<MsgSlot>> =
                            ShmPtr::from_raw(off as u32);
                        self.pool.free(self.arena, slot);
                        os.record(ProtoEvent::Dequeue);
                    }
                    RingReclaim::Leaked => {
                        // A corpse's claimed-unpublished hole: its pool
                        // slot is unreachable for good. Count and keep
                        // draining whatever queued behind the hole.
                        os.record(ProtoEvent::SlotLeaked);
                    }
                    RingReclaim::Clean => return,
                },
                Err(usipc_queue::HeadLockBusy) => {
                    // Two-lock only: everything still queued is stranded
                    // behind the abandoned head lock. Count it, then stop.
                    for _ in 0..self.wq.queue.len(self.arena) {
                        os.record(ProtoEvent::SlotLeaked);
                    }
                    return;
                }
            }
        }
    }

    /// Marks this queue's consumer dead (called from the dying task's
    /// unwind guard on native, or by a fault scenario in the simulator)
    /// and poisons the queue on its behalf so survivors fail fast.
    pub fn mark_consumer_dead<O: OsServices>(&self, os: &O) {
        self.wq.fault.consumer_live.store(0, Ordering::Release);
        self.poison(os);
    }

    /// Whether the consumer of this queue is still considered alive.
    pub fn consumer_alive(&self) -> bool {
        self.wq.fault.consumer_live.load(Ordering::Acquire) != 0
    }

    /// Consumer heartbeat: bump the epoch word (called once per receive
    /// pass; a relaxed store on an otherwise-private line).
    pub fn beat(&self) {
        self.wq.fault.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// Current heartbeat epoch (watch across a deadline period to detect
    /// a wedged-but-unmarked peer).
    pub fn heartbeat(&self) -> u32 {
        self.wq.fault.heartbeat.load(Ordering::Acquire)
    }

    /// Records that the consumer's session ended with a DISCONNECT.
    pub(crate) fn mark_departed(&self) {
        self.wq.fault.departed.store(1, Ordering::Release);
    }

    /// Whether some server incarnation took this consumer's DISCONNECT.
    pub(crate) fn departed(&self) -> bool {
        self.wq.fault.departed.load(Ordering::Acquire) != 0
    }

    // --- recovery hooks ([`recover`](crate::recover)) ---------------------
    //
    // Everything below runs only under fsck's quiescence contract: the dead
    // incarnation's server is gone, and every surviving client is either
    // blocked in the kernel or failing fast on poison/staleness — nobody
    // else is mutating this queue. All repairs are conditional so that
    // recovery of a clean segment is a byte-level no-op.

    /// Structural fsck of the underlying FIFO: break provably-abandoned
    /// locks (two-lock), retire stranded ring slots, reclaim uncommitted
    /// nodes, and return the committed message offsets in order.
    pub(crate) fn fsck_fifo(&self, break_locks: bool) -> usipc_queue::FifoFsck {
        self.wq.queue.fsck(self.arena, break_locks)
    }

    /// Whether the consumer announced intent to sleep (`awake == 0`): the
    /// recovery-time signature of a client parked mid-call. A raw load —
    /// no cost charge, because fsck runs outside any protocol.
    pub(crate) fn awake_down(&self) -> bool {
        self.wq.awake.load(Ordering::Acquire) == 0
    }

    /// Restores the `awake` flag to its created state (`1`). Returns
    /// whether it was actually down — a consumer that died between
    /// `clear_awake` and its semaphore `P`.
    pub(crate) fn restore_awake(&self) -> bool {
        if self.wq.awake.load(Ordering::Acquire) == 0 {
            self.wq.awake.store(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Clears the fault words back to live-and-unpoisoned — the one
    /// deliberate exception to the "poison is sticky" contract. It is
    /// sound only because the caller bumps the segment generation in the
    /// same recovery: handles stamped under the old incarnation are fenced
    /// off by the generation check *before* they can observe (and wrongly
    /// trust) the cleared poison. Returns whether anything was reset.
    pub(crate) fn reset_fault_state(&self) -> bool {
        let mut did = false;
        if self.wq.fault.poison.load(Ordering::Acquire) != 0 {
            self.wq.fault.poison.store(0, Ordering::SeqCst);
            did = true;
        }
        if self.wq.fault.consumer_live.load(Ordering::Acquire) == 0 {
            self.wq.fault.consumer_live.store(1, Ordering::SeqCst);
            did = true;
        }
        did
    }

    /// Reads the message at pool offset `off` without dequeuing or freeing
    /// it — fsck interprets committed queue entries for its conservation
    /// ledger while leaving them queued for the successor to serve.
    pub(crate) fn peek_message(&self, off: u64) -> Message {
        let slot: ShmPtr<usipc_shm::PoolSlot<MsgSlot>> = ShmPtr::from_raw(off as u32);
        self.arena.get(slot).value().load()
    }
}

/// Client-side endpoint: synchronous `Send` (and the asynchronous
/// extension via [`AsyncClient`](crate::AsyncClient)).
pub struct ClientEndpoint<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    id: u32,
    strategy: WaitStrategy,
}

impl<O: OsServices> ClientEndpoint<'_, O> {
    /// This client's reply-queue index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Synchronous `Send`: enqueue the request and wait for the reply under
    /// the endpoint's wait strategy.
    ///
    /// When the backend collects metrics, each call feeds the endpoint's
    /// round-trip latency sketch (host time on native, virtual time on
    /// the simulator).
    pub fn call(&self, mut msg: Message) -> Message {
        msg.channel = self.id;
        let start = match self.os.metrics() {
            Some(_) => self.os.now_nanos(),
            None => None,
        };
        self.os.trace(TracePoint::Begin(Span::RoundTrip));
        let reply = self.strategy.send(self.ch, self.os, self.id, msg);
        self.os.trace(TracePoint::End(Span::RoundTrip));
        if let (Some(t0), Some(m)) = (start, self.os.metrics()) {
            if let Some(t1) = self.os.now_nanos() {
                m.record_latency_nanos(t1.saturating_sub(t0));
            }
        }
        reply
    }

    /// Fallible synchronous `Send`, bounded by `timeout` and aware of the
    /// failure model (DESIGN.md, "Failure model"):
    ///
    /// * a handle stamped under a superseded segment incarnation — a
    ///   successor took over and bumped the generation — is rejected
    ///   immediately with [`IpcError::StaleGeneration`](crate::fault::IpcError::StaleGeneration);
    ///   re-opt-in via [`Channel::revalidate`];
    /// * a poisoned channel is rejected **immediately** — one shared-memory
    ///   load, no kernel entry, no queue traffic ([`IpcError::Poisoned`]);
    /// * expiry while the request is still queued-or-unqueued returns
    ///   [`IpcError::QueueFull`] — nothing is in flight, retry freely;
    /// * expiry while waiting for the reply means the request *may* be in
    ///   flight: a late reply would desynchronize the queue, so the client
    ///   poisons its own reply channel (sticky) and returns
    ///   [`IpcError::Timeout`] — or [`IpcError::PeerDead`] when the
    ///   server's liveness word shows it died, in which case the shared
    ///   receive queue is poisoned too so every client fails fast.
    pub fn call_deadline(
        &self,
        mut msg: Message,
        timeout: core::time::Duration,
    ) -> Result<Message, crate::fault::IpcError> {
        use crate::fault::IpcError;
        msg.channel = self.id;
        // Generation check first: after a takeover the old incarnation's
        // poison flags have been audited away, so a stale handle must not
        // read (or, worse, trust) any per-queue state. One load each side.
        if self.ch.is_stale() {
            return Err(IpcError::StaleGeneration);
        }
        let srv = self.ch.receive_queue();
        let rq = self.ch.reply_queue(self.id);
        if srv.is_poisoned() || rq.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        let start = match self.os.metrics() {
            Some(_) => self.os.now_nanos(),
            None => None,
        };
        self.os.trace(TracePoint::Begin(Span::RoundTrip));
        let out = self
            .strategy
            .send_deadline(self.ch, self.os, self.id, msg, timeout);
        self.os.trace(TracePoint::End(Span::RoundTrip));
        match out {
            Ok(reply) => {
                if let (Some(t0), Some(m)) = (start, self.os.metrics()) {
                    if let Some(t1) = self.os.now_nanos() {
                        m.record_latency_nanos(t1.saturating_sub(t0));
                    }
                }
                Ok(reply)
            }
            Err(IpcError::Timeout) => {
                // The reply never came. Distinguish a dead server from a
                // slow one via the liveness word, then poison what is now
                // indeterminate: always our own reply channel, and the
                // shared receive queue too when the server is gone.
                if !srv.consumer_alive() {
                    self.os.record(ProtoEvent::PeerDeathDetected);
                    rq.poison(self.os);
                    srv.poison(self.os);
                    Err(IpcError::PeerDead)
                } else {
                    rq.poison(self.os);
                    Err(IpcError::Timeout)
                }
            }
            Err(IpcError::Poisoned) => {
                // Poison raced in mid-call. If it stems from a marked
                // death, report the root cause.
                if !srv.consumer_alive() {
                    self.os.record(ProtoEvent::PeerDeathDetected);
                    Err(IpcError::PeerDead)
                } else {
                    Err(IpcError::Poisoned)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Convenience: ECHO round trip, returning the echoed value.
    pub fn echo(&self, value: f64) -> f64 {
        self.call(Message::echo(self.id, value)).value
    }

    /// Convenience: a request with `opcode` and `value`.
    pub fn rpc(&self, opcode: u32, value: f64) -> Message {
        self.call(Message {
            opcode,
            channel: self.id,
            value,
            aux: 0,
        })
    }

    /// Sends the disconnect message and waits for the final reply.
    pub fn disconnect(&self) {
        let _ = self.call(Message::disconnect(self.id));
    }
}

/// Server-side endpoint: `Receive` and `Reply`.
pub struct ServerEndpoint<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    strategy: WaitStrategy,
}

impl<O: OsServices> ServerEndpoint<'_, O> {
    /// Blocking `Receive` under the endpoint's wait strategy.
    pub fn receive(&self) -> Message {
        self.strategy.receive(self.ch, self.os)
    }

    /// `Reply` to client `c`. When `c` names no reply queue — a malformed
    /// client-supplied channel number — the reply is dropped and counted
    /// ([`ProtoEvent::MalformedRequest`]) instead of panicking the server.
    pub fn reply(&self, c: u32, msg: Message) {
        if c >= self.ch.n_clients() {
            self.os.record(ProtoEvent::MalformedRequest);
            return;
        }
        self.strategy.reply(self.ch, self.os, c, msg)
    }

    /// Fallible `Receive`, bounded by `timeout`. Expiry is *normal* — no
    /// client happened to call — and poisons nothing; resilient servers
    /// use the period to scan client liveness
    /// ([`Self::reap_dead_clients`]). Also bumps the receive queue's
    /// heartbeat word so watchers can tell a waiting server from a wedged
    /// one.
    pub fn receive_deadline(
        &self,
        timeout: core::time::Duration,
    ) -> Result<Message, crate::fault::IpcError> {
        self.ch.receive_queue().beat();
        self.strategy.receive_deadline(self.ch, self.os, timeout)
    }

    /// Fallible `Reply` to client `c`: fails fast with
    /// [`IpcError`](crate::fault::IpcError) instead of backing off forever
    /// against a reply queue whose client died. Detecting a dead client
    /// here poisons (only) that client's reply queue.
    pub fn reply_deadline(
        &self,
        c: u32,
        msg: Message,
        timeout: core::time::Duration,
    ) -> Result<(), crate::fault::IpcError> {
        use crate::fault::IpcError;
        let Some(rq) = self.ch.try_reply_queue(c) else {
            self.os.record(ProtoEvent::MalformedRequest);
            return Err(IpcError::QueueFull);
        };
        if !rq.consumer_alive() {
            self.os.record(ProtoEvent::PeerDeathDetected);
            rq.poison(self.os);
            return Err(IpcError::PeerDead);
        }
        if rq.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        self.strategy
            .reply_deadline(self.ch, self.os, c, msg, timeout)
    }

    /// Scans every client's liveness word, poisoning (and draining) the
    /// reply queues of clients that died. Returns how many *newly* dead
    /// clients were reaped. Cheap — one shared-memory load per client —
    /// so resilient servers run it once per receive timeout.
    pub fn reap_dead_clients(&self) -> u32 {
        let mut reaped = 0;
        for c in 0..self.ch.n_clients() {
            let rq = self.ch.reply_queue(c);
            if !rq.consumer_alive() && !rq.is_poisoned() {
                self.os.record(ProtoEvent::PeerDeathDetected);
                rq.poison(self.os);
                reaped += 1;
            }
        }
        reaped
    }

    /// The channel this endpoint serves.
    pub fn channel(&self) -> &Channel {
        self.ch
    }

    /// The OS services handle (for charging request work in handlers).
    pub fn os(&self) -> &O {
        self.os
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeConfig, NativeOs};
    use usipc_shm::CACHE_LINE;

    #[test]
    fn awake_flag_owns_its_cache_line() {
        assert_eq!(core::mem::align_of::<WaitableQueue>(), CACHE_LINE);
        assert_eq!(
            core::mem::offset_of!(WaitableQueue, awake) % CACHE_LINE,
            0,
            "awake must start a fresh line"
        );
        // Reply-array neighbours must not share the awake line either.
        assert_eq!(core::mem::size_of::<WaitableQueue>() % CACHE_LINE, 0);
    }

    #[test]
    fn arena_sizing_survives_worst_case_occupancy() {
        // 64 clients × 256-deep queues: every queue simultaneously full is
        // the worst case the sizing must cover — on both queue kinds.
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let cfg = ChannelConfig {
                queue_capacity: 256,
                queue_kind: kind,
                ..ChannelConfig::new(64)
            };
            let ch = Channel::create(&cfg).expect("arena sized for large configs");
            assert_eq!(ch.queue_kind(), kind);
            let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
            let mut queues = vec![ch.receive_queue()];
            for c in 0..cfg.n_clients as u32 {
                queues.push(ch.reply_queue(c));
            }
            for q in &queues {
                for i in 0..cfg.queue_capacity {
                    assert!(
                        q.try_enqueue(&os, Message::echo(0, i as f64)),
                        "{kind:?}: queue refused message {i} with the arena supposedly sized"
                    );
                }
            }
            for q in &queues {
                assert_eq!(q.queued_len(), cfg.queue_capacity);
            }
        }
    }

    #[test]
    fn arena_sizing_is_not_a_gross_overestimate() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            for cfg in [
                ChannelConfig::new(1).with_queue_kind(kind),
                ChannelConfig::new(6).with_queue_kind(kind),
                ChannelConfig {
                    queue_capacity: 256,
                    queue_kind: kind,
                    ..ChannelConfig::new(64)
                },
            ] {
                let ch = Channel::create(&cfg).expect("create");
                let (capacity, used) = (ch.arena().capacity(), ch.arena().used());
                assert!(
                    capacity <= 2 * used,
                    "{kind:?}: {} clients × {}: arena {capacity} B but only {used} B used",
                    cfg.n_clients,
                    cfg.queue_capacity
                );
            }
        }
    }

    /// Regression for the POOL_SLACK exactness contract: a config that
    /// admits more concurrent dequeuers than the node pool's slack could
    /// make `enqueue` report a spurious "full", so creation must refuse it
    /// loudly instead of letting the deployment discover it under load.
    #[test]
    #[should_panic(expected = "max_dequeuers")]
    fn create_rejects_more_dequeuers_than_pool_slack() {
        let cfg = ChannelConfig {
            max_dequeuers: usipc_queue::POOL_SLACK + 1,
            ..ChannelConfig::new(1)
        };
        let _ = Channel::create(&cfg);
    }

    /// The full boundary stays exact at the configured limit.
    #[test]
    fn create_accepts_dequeuers_up_to_pool_slack() {
        let cfg = ChannelConfig {
            max_dequeuers: usipc_queue::POOL_SLACK,
            ..ChannelConfig::new(1)
        };
        Channel::create(&cfg).expect("POOL_SLACK dequeuers are within contract");
    }

    /// Generation fencing: bumping the segment generation strands every
    /// handle stamped before it — fallible calls fail fast with
    /// `StaleGeneration` and put **nothing** on the queues — while
    /// `revalidate` on any clone opts the whole process-local handle
    /// family back in.
    #[test]
    fn stale_generation_fails_fast_and_revalidates() {
        use crate::fault::IpcError;
        let ch = Channel::create(&ChannelConfig::new(1)).expect("create");
        let clone = ch.clone();
        assert!(!ch.is_stale());
        assert_eq!(ch.generation(), ch.segment_generation());

        ch.arena().bump_generation();
        assert!(ch.is_stale(), "bump must strand the old stamp");
        assert!(clone.is_stale(), "clones share the stamp");

        let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
        let client = ch.client(&os, 0, WaitStrategy::Bsw);
        assert_eq!(
            client.call_deadline(Message::echo(0, 1.0), core::time::Duration::from_millis(5)),
            Err(IpcError::StaleGeneration),
            "stale handle must fail fast, not time out"
        );
        assert_eq!(
            ch.receive_queue().queued_len(),
            0,
            "a stale call must leave no request behind"
        );

        assert_eq!(clone.revalidate(), ch.segment_generation());
        assert!(!ch.is_stale(), "revalidating one clone revalidates all");
    }

    /// Both queue kinds run the same round trip through a QueueRef —
    /// enqueue, wake bookkeeping, dequeue — and agree on flow control.
    #[test]
    fn queue_ref_roundtrip_on_both_kinds() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let cfg = ChannelConfig {
                queue_capacity: 4,
                queue_kind: kind,
                ..ChannelConfig::new(1)
            };
            let ch = Channel::create(&cfg).expect("create");
            let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
            let q = ch.receive_queue();
            // The ring rounds capacity up to a power of two; both kinds
            // must accept at least the configured depth and refuse beyond
            // their real one.
            for i in 0..4 {
                assert!(q.try_enqueue(&os, Message::echo(0, i as f64)), "{kind:?}");
            }
            let real_cap = match kind {
                QueueKind::TwoLock => 4,
                QueueKind::Ring => 4, // 4 is already a power of two
            };
            assert_eq!(q.queued_len(), real_cap, "{kind:?}");
            assert!(!q.try_enqueue(&os, Message::echo(0, 9.0)), "{kind:?}: full");
            for i in 0..4 {
                let m = q.try_dequeue(&os).expect("queued message");
                assert_eq!(m.value, i as f64, "{kind:?}: FIFO");
            }
            assert!(q.try_dequeue(&os).is_none(), "{kind:?}");
            assert!(q.is_empty(&os), "{kind:?}");
        }
    }
}
