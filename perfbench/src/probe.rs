//! The benchmark's view into the OS/semaphore layer.
//!
//! Workloads are generic over [`Probe`]. The untraced run instantiates
//! them with the library's own [`NativeTask`], so end-to-end figures carry
//! no measurement code at all. The traced run instantiates them with
//! [`Traced`], an [`OsServices`] wrapper that forwards every call to the
//! `NativeTask` inside it and keeps a span around each call the protocols
//! make into the OS layer (semaphores, spins, yields, back-offs).
//!
//! Spans live in a per-thread `Vec` and are only read after the thread
//! ends, so recording one costs two clock reads and a push.

use crate::host::now_ns;
use std::cell::{Cell, RefCell};
use std::time::Duration;
use usipc::metrics::EndpointMetrics;
use usipc::trace::{TracePoint, TraceRing};
use usipc::{Cost, HandoffHint, NativeTask, OsServices, ProtoEvent};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client call, send to reply (recorded by the workload).
    Call,
    /// The server's handler for one request (recorded by the workload).
    Handler,
    /// One `TelemetryPlane::read` by a client (recorded by the workload).
    TelemetryRead,
    /// `sem_p` or `sem_p_deadline`.
    SemP,
    /// `sem_v`.
    SemV,
    /// `busy_wait`.
    BusyWait,
    /// `poll_pause`.
    PollPause,
    /// `yield_now`.
    Yield,
    /// `handoff` (a yield on this host).
    Handoff,
    /// `sleep_full`, the queue-full back-off.
    SleepFull,
    /// `compute`.
    Compute,
}

impl Kind {
    /// Name used in the written-out span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::Handler => "handler",
            Kind::TelemetryRead => "telemetry_read",
            Kind::SemP => "sem_p",
            Kind::SemV => "sem_v",
            Kind::BusyWait => "busy_wait",
            Kind::PollPause => "poll_pause",
            Kind::Yield => "yield",
            Kind::Handoff => "handoff",
            Kind::SleepFull => "sleep_full",
            Kind::Compute => "compute",
        }
    }

    /// Spans during which the thread waits for its peer rather than
    /// working: the idle share of a server, and the part of a client call
    /// the other side has to explain.
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            Kind::SemP
                | Kind::BusyWait
                | Kind::PollPause
                | Kind::Yield
                | Kind::Handoff
                | Kind::SleepFull
        )
    }

    /// Spans inside the `native` layer's spin and back-off primitives.
    pub fn is_spin(self) -> bool {
        matches!(self, Kind::BusyWait | Kind::PollPause)
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Semaphore index for `SemP`/`SemV`, otherwise 0.
    pub sem: u32,
    pub start: u64,
    pub end: u64,
    /// Request id the benchmark put in the message (`aux`). Server OS
    /// spans are stamped later, in the analysis: they belong to the
    /// request the next handler receives.
    pub req: u64,
    /// Index, in the same thread's log, of the span that caused this one.
    pub parent: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An [`OsServices`] implementation the workloads run on, plus the hooks
/// the workloads use to mark calls and handlers. The hooks cost nothing
/// on the untraced `NativeTask`.
pub trait Probe: OsServices + Sized {
    /// Whether this probe records spans.
    const TRACED: bool;

    /// Builds the probe around the library's task handle.
    fn wrap(task: NativeTask) -> Self;

    /// Opens the span of call `req`; OS spans until [`Self::end_call`]
    /// are its children.
    fn begin_call(&self, _req: u64) {}

    /// Closes the open call span with its measured bounds.
    fn end_call(&self, _start: u64, _end: u64) {}

    /// Records a span the workload timed itself.
    fn span(&self, _kind: Kind, _req: u64, _start: u64, _end: u64) {}

    /// The recorded spans, in recording order.
    fn into_spans(self) -> Vec<Span> {
        Vec::new()
    }
}

impl Probe for NativeTask {
    const TRACED: bool = false;

    fn wrap(task: NativeTask) -> Self {
        task
    }
}

/// The tracing wrapper: a `NativeTask` plus its thread's span log.
pub struct Traced {
    inner: NativeTask,
    log: RefCell<Vec<Span>>,
    open_call: Cell<u32>,
    req: Cell<u64>,
}

impl Traced {
    fn timed<R>(&self, kind: Kind, sem: u32, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let r = f();
        let end = now_ns();
        self.log.borrow_mut().push(Span {
            kind,
            sem,
            start,
            end,
            req: self.req.get(),
            parent: self.open_call.get(),
        });
        r
    }
}

impl Probe for Traced {
    const TRACED: bool = true;

    fn wrap(task: NativeTask) -> Self {
        Traced {
            inner: task,
            log: RefCell::new(Vec::with_capacity(1 << 20)),
            open_call: Cell::new(NO_PARENT),
            req: Cell::new(u64::MAX),
        }
    }

    fn begin_call(&self, req: u64) {
        let mut log = self.log.borrow_mut();
        self.req.set(req);
        self.open_call.set(log.len() as u32);
        log.push(Span {
            kind: Kind::Call,
            sem: 0,
            start: 0,
            end: 0,
            req,
            parent: NO_PARENT,
        });
    }

    fn end_call(&self, start: u64, end: u64) {
        let i = self.open_call.replace(NO_PARENT);
        if let Some(s) = self.log.borrow_mut().get_mut(i as usize) {
            s.start = start;
            s.end = end;
        }
    }

    fn span(&self, kind: Kind, req: u64, start: u64, end: u64) {
        self.log.borrow_mut().push(Span {
            kind,
            sem: 0,
            start,
            end,
            req,
            parent: self.open_call.get(),
        });
    }

    fn into_spans(self) -> Vec<Span> {
        self.log.into_inner()
    }
}

impl OsServices for Traced {
    fn yield_now(&self) {
        self.timed(Kind::Yield, 0, || self.inner.yield_now())
    }

    fn busy_wait(&self) {
        self.timed(Kind::BusyWait, 0, || self.inner.busy_wait())
    }

    fn poll_pause(&self) {
        self.timed(Kind::PollPause, 0, || self.inner.poll_pause())
    }

    fn sem_p(&self, sem: u32) {
        self.timed(Kind::SemP, sem, || self.inner.sem_p(sem))
    }

    fn sem_v(&self, sem: u32) {
        self.timed(Kind::SemV, sem, || self.inner.sem_v(sem))
    }

    // Must be forwarded: the trait's default drops the deadline and
    // blocks forever, which would silence the shard worker's heartbeat.
    fn sem_p_deadline(&self, sem: u32, timeout: Duration) -> bool {
        self.timed(Kind::SemP, sem, || self.inner.sem_p_deadline(sem, timeout))
    }

    fn sleep_full(&self) {
        self.timed(Kind::SleepFull, 0, || self.inner.sleep_full())
    }

    fn charge(&self, c: Cost) {
        self.inner.charge(c)
    }

    fn handoff(&self, h: HandoffHint) {
        self.timed(Kind::Handoff, 0, || self.inner.handoff(h))
    }

    fn msgsnd(&self, q: u32, m: [u64; 4]) {
        self.inner.msgsnd(q, m)
    }

    fn msgrcv(&self, q: u32) -> [u64; 4] {
        self.inner.msgrcv(q)
    }

    fn compute(&self, nanos: u64) {
        self.timed(Kind::Compute, 0, || self.inner.compute(nanos))
    }

    fn task_id(&self) -> u32 {
        self.inner.task_id()
    }

    fn metrics(&self) -> Option<&EndpointMetrics> {
        self.inner.metrics()
    }

    fn record(&self, e: ProtoEvent) {
        self.inner.record(e)
    }

    fn trace_sink(&self) -> Option<&TraceRing> {
        self.inner.trace_sink()
    }

    fn trace(&self, p: TracePoint) {
        self.inner.trace(p)
    }

    fn now_nanos(&self) -> Option<u64> {
        self.inner.now_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usipc::{NativeConfig, NativeOs};

    #[test]
    fn wrapper_forwards_every_os_service() {
        let os = NativeOs::new(NativeConfig::for_clients(1).with_trace(64));
        let t = Traced::wrap(os.task(1));
        assert_eq!(t.task_id(), 1);
        assert!(t.metrics().is_some(), "metrics sink forwarded");
        assert!(t.trace_sink().is_some(), "trace sink forwarded");
        assert!(t.now_nanos().is_some(), "clock forwarded");

        t.charge(Cost::QueueOp);
        t.charge(Cost::Tas);
        t.record(ProtoEvent::Enqueue);
        t.trace(TracePoint::Proto(ProtoEvent::Dequeue));
        t.sem_v(1);
        t.sem_p(1);
        t.sem_v(1);
        assert!(
            t.sem_p_deadline(1, Duration::from_millis(1)),
            "banked credit"
        );
        t.yield_now();
        t.busy_wait();
        t.poll_pause();
        t.sleep_full();
        t.handoff(HandoffHint::Any);
        t.compute(1_000);
        t.msgsnd(0, [7, 0, 0, 0]);
        assert_eq!(t.msgrcv(0)[0], 7);

        let s = os.metrics().unwrap().task_snapshot(1);
        assert_eq!((s.queue_ops, s.tas_ops, s.enqueues), (1, 1, 1));
        assert_eq!((s.sem_p, s.sem_v), (2, 2));
        assert_eq!(s.yields, 1);
        assert_eq!(s.spin_iterations, 2, "busy_wait + poll_pause");
        assert_eq!(s.queue_full_backoffs, 1);
        assert_eq!(s.handoffs, 1);
        // The inner task's trace ring saw the forwarded events.
        assert!(t.trace_sink().unwrap().written() >= 8);

        let kinds: Vec<Kind> = t.into_spans().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::SemV,
                Kind::SemP,
                Kind::SemV,
                Kind::SemP,
                Kind::Yield,
                Kind::BusyWait,
                Kind::PollPause,
                Kind::SleepFull,
                Kind::Handoff,
                Kind::Compute,
            ]
        );
    }

    #[test]
    fn wrapper_keeps_the_wait_deadline() {
        // With the trait's default `sem_p_deadline` this P would never
        // return; the worker's heartbeat depends on it expiring.
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let task = os.task(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let t = Traced::wrap(task);
            let taken = t.sem_p_deadline(1, Duration::from_millis(5));
            tx.send((taken, t.into_spans())).unwrap();
        });
        let (taken, spans) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("sem_p_deadline ignored its deadline");
        waiter.join().unwrap();
        assert!(!taken, "no credit: the wait must expire");
        assert_eq!(os.metrics().unwrap().task_snapshot(1).timed_out, 1);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].kind, spans[0].sem), (Kind::SemP, 1));
        assert!(spans[0].dur() >= 4_000_000, "span covers the wait");
    }

    #[test]
    fn os_spans_nest_under_the_open_call() {
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let t = Traced::wrap(os.task(1));
        t.begin_call(42);
        t.sem_v(1);
        t.end_call(10, 20);
        t.sem_p(1);
        let spans = t.into_spans();
        assert_eq!(spans[0].kind, Kind::Call);
        assert_eq!((spans[0].start, spans[0].end, spans[0].req), (10, 20, 42));
        assert_eq!((spans[1].parent, spans[1].req), (0, 42));
        assert_eq!(spans[2].parent, NO_PARENT, "after the call closed");
    }
}
