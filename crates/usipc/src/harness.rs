//! Ready-made client/server workloads — the paper's benchmark, runnable on
//! both backends.
//!
//! §2.2 describes the workload every figure uses: *n* clients connect to a
//! single-threaded echo server, barrier, and then "barrage the server with
//! many thousands of message requests"; the throughput is messages over the
//! real elapsed time from the first request to the last disconnect. This
//! module packages that workload for the simulator
//! ([`run_sim_experiment`]), for real threads ([`run_thread_echo`]) and,
//! on Linux, for forked processes over a shared segment (`run_proc_echo`
//! and the crash drills beside it).

use crate::channel::{Channel, ChannelConfig};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::platform::OsServices;
use crate::protocol::WaitStrategy;
use crate::simulated::{SimCosts, SimIds, SimOs};
use crate::sysv::{sysv_disconnect, sysv_echo};
use crate::telemetry::SketchSnapshot;
use crate::trace::{TraceRegistry, UnifiedTrace};
use crate::{NativeConfig, NativeOs};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usipc_queue::QueueKind;
use usipc_sim::{MachineModel, PolicyKind, SimBuilder, SimReport, VDur};

/// Mark code: a client is about to issue its first request.
pub const MARK_FIRST_SEND: u64 = 1;
/// Mark code: the server observed the last disconnect.
pub const MARK_SERVER_DONE: u64 = 2;

/// Which IPC mechanism an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// User-level IPC under the given wait strategy.
    UserLevel(WaitStrategy),
    /// The kernel-mediated System V baseline.
    SysV,
    /// BSLS clients against the overload-aware server that throttles
    /// wake-ups (the paper's §5 future work; see
    /// [`run_throttled_server`](crate::run_throttled_server)).
    Throttled {
        /// Client and server spin budget.
        max_spin: u32,
        /// Deferred wake-ups issued per server cycle.
        wake_batch: usize,
    },
}

impl Mechanism {
    /// Short name for tables and CSV files.
    pub fn name(self) -> String {
        match self {
            Mechanism::UserLevel(s) => s.name(),
            Mechanism::SysV => "SysV".into(),
            Mechanism::Throttled { max_spin, .. } => format!("THR({max_spin})"),
        }
    }
}

/// One cell of an experiment grid: machine × policy × mechanism × clients.
#[derive(Debug, Clone)]
pub struct SimExperiment {
    /// Cost model.
    pub machine: MachineModel,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// IPC mechanism under test.
    pub mechanism: Mechanism,
    /// Number of client processes.
    pub n_clients: usize,
    /// Request/reply round trips per client (before the disconnect).
    pub msgs_per_client: u64,
    /// Depth of each shared queue.
    pub queue_capacity: usize,
    /// Maximum extra per-request service time, drawn deterministically per
    /// message (hash of client and argument). Zero for the pure echo
    /// micro-benchmark; nonzero to model real service-time variability —
    /// which is what gives BSLS its nonzero fall-through rates (§4.2).
    pub service_jitter: VDur,
    /// Per-task event-trace ring capacity; `None` disables tracing. When
    /// set, the result carries a [`UnifiedTrace`] merging protocol events
    /// with the engine's scheduling timeline. Tracing never perturbs the
    /// virtual-time schedule (timestamps are zero-cost `Now` requests).
    pub trace_capacity: Option<usize>,
}

impl SimExperiment {
    /// The paper's standard workload shape on the given machine/policy.
    pub fn new(machine: MachineModel, policy: PolicyKind, mechanism: Mechanism) -> Self {
        SimExperiment {
            machine,
            policy,
            mechanism,
            n_clients: 1,
            msgs_per_client: 2_000,
            queue_capacity: 64,
            service_jitter: VDur::ZERO,
            trace_capacity: None,
        }
    }

    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets the per-client message count.
    pub fn messages(mut self, n: u64) -> Self {
        self.msgs_per_client = n;
        self
    }

    /// Sets the maximum per-request service jitter.
    pub fn jitter(mut self, j: VDur) -> Self {
        self.service_jitter = j;
        self
    }

    /// Enables event tracing with the given per-task ring capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }
}

/// Deterministic per-message jitter in `[0, max)` from a 64-bit mix of the
/// client id and the request argument.
pub fn jitter_for(channel: u32, value: f64, max: VDur) -> VDur {
    if max.is_zero() {
        return VDur::ZERO;
    }
    let mut h = value.to_bits() ^ (channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    VDur::nanos(h % max.as_nanos().max(1))
}

/// Results of one simulated experiment cell.
#[derive(Debug, Clone)]
pub struct SimExperimentResult {
    /// Full simulator report (per-task rusage, marks, outcome).
    pub report: SimReport,
    /// First request → last disconnect, the paper's measurement window.
    pub elapsed: VDur,
    /// ECHO messages processed (disconnects excluded).
    pub messages: u64,
    /// Server throughput in messages per millisecond — the y-axis of every
    /// throughput figure.
    pub throughput: f64,
    /// Mean round-trip latency per message in microseconds.
    pub latency_us: f64,
    /// Protocol events recorded by the server task.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client task.
    pub client_metrics: MetricsSnapshot,
    /// Round-trip latency sketch merged over every client task
    /// (virtual-time samples; empty for the SysV baseline, which bypasses
    /// the channel layer).
    pub client_latency: SketchSnapshot,
    /// The unified event trace (protocol events + bridged scheduler
    /// timeline), present when the experiment enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Runs one experiment cell on the simulator.
///
/// Task 0 is the server; tasks `1..=n` are clients. Clients meet at a
/// kernel barrier before the barrage, mirroring §2.2.
///
/// # Panics
///
/// If the simulation does not complete (deadlock, overflow, task panic) —
/// in an experiment harness any such outcome is a protocol bug worth a loud
/// failure.
pub fn run_sim_experiment(exp: &SimExperiment) -> SimExperimentResult {
    let n = exp.n_clients;
    assert!(n >= 1);
    let multiprocessor = exp.machine.cpus > 1;
    let costs = SimCosts::from_machine(&exp.machine);
    let mut b = SimBuilder::new(exp.machine.clone(), exp.policy.build());
    // One virtual hour default is plenty; linux-old BSS at 33 ms per round
    // trip with thousands of messages can exceed it, so scale generously.
    b.time_limit(VDur::seconds(24 * 3600));

    let mut ids = SimIds::default();
    for _ in 0..=n {
        ids.sems.push(b.add_sem(0));
    }
    for _ in 0..=n {
        ids.msgqs.push(b.add_msgq(exp.queue_capacity));
    }
    let start_barrier = b.add_barrier(n as u32);
    let ids = Arc::new(ids);

    let channel = Channel::create(&ChannelConfig {
        queue_capacity: exp.queue_capacity,
        ..ChannelConfig::new(n)
    })
    .expect("channel creation");

    let mechanism = exp.mechanism;
    let msgs = exp.msgs_per_client;
    let jitter = exp.service_jitter;
    let metrics = Arc::new(MetricsRegistry::new());
    let traces = exp.trace_capacity.map(|cap| {
        b.trace(true); // also capture the engine's scheduling timeline
        Arc::new(TraceRegistry::new(cap))
    });

    // Server: task 0 == Pid(0).
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(0);
        let ring = traces.as_ref().map(|t| t.for_task(0));
        b.spawn("server", move |sys| {
            let mut os = SimOs::new(sys, ids, costs, multiprocessor, 0).with_metrics(sink);
            if let Some(r) = ring {
                os = os.with_trace(r);
            }
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let _ = crate::server::run_server(&ch, &os, strategy, |m| {
                        os.compute(jitter_for(m.channel, m.value, jitter).as_nanos());
                        m
                    });
                }
                Mechanism::SysV => {
                    let _ = crate::sysv::run_sysv_server(&os, n as u32, |m| {
                        os.compute(jitter_for(m.channel, m.value, jitter).as_nanos());
                        m
                    });
                }
                Mechanism::Throttled {
                    max_spin,
                    wake_batch,
                } => {
                    // NOTE: the throttled server ignores `jitter` — it is a
                    // pure-echo ablation of the wake-up path.
                    let _ = crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch);
                }
            }
            sys.mark(MARK_SERVER_DONE);
        });
    }

    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(1 + c);
        let ring = traces.as_ref().map(|t| t.for_task(1 + c));
        b.spawn(format!("client{c}"), move |sys| {
            let mut os = SimOs::new(sys, ids, costs, multiprocessor, 1 + c).with_metrics(sink);
            if let Some(r) = ring {
                os = os.with_trace(r);
            }
            sys.barrier(start_barrier);
            sys.mark(MARK_FIRST_SEND);
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let ep = ch.client(&os, c, strategy);
                    for i in 0..msgs {
                        let v = ep.echo(i as f64);
                        assert_eq!(v, i as f64, "echo corrupted");
                    }
                    ep.disconnect();
                }
                Mechanism::SysV => {
                    for i in 0..msgs {
                        let v = sysv_echo(&os, c, i as f64);
                        assert_eq!(v, i as f64, "sysv echo corrupted");
                    }
                    sysv_disconnect(&os, c);
                }
                Mechanism::Throttled { max_spin, .. } => {
                    let ep = ch.client(&os, c, WaitStrategy::Bsls { max_spin });
                    for i in 0..msgs {
                        let v = ep.echo(i as f64);
                        assert_eq!(v, i as f64, "echo corrupted");
                    }
                    ep.disconnect();
                }
            }
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "experiment did not complete: {:?} (mechanism {:?}, {} clients)",
        report.outcome,
        exp.mechanism,
        n
    );
    let start = report
        .first_mark(MARK_FIRST_SEND)
        .expect("clients marked their first send");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server marked completion");
    let elapsed = done.since(start);
    let messages = msgs * n as u64;
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let trace = traces.map(|t| {
        let mut names = vec![(0, "server".to_string())];
        for c in 0..n as u32 {
            names.push((1 + c, format!("client{c}")));
        }
        let mut u = t.collect(&names);
        u.merge_sim(&report.trace);
        u
    });
    SimExperimentResult {
        throughput: messages as f64 / ms,
        latency_us: elapsed.as_micros_f64() / messages.max(1) as f64,
        elapsed,
        messages,
        server_metrics: metrics.task_snapshot(0),
        client_metrics: metrics.aggregate(|t| t != 0),
        client_latency: metrics.aggregate_latency(|t| t != 0),
        trace,
        report,
    }
}

/// Runs the §2.1 alternative architecture — a server thread per client
/// over full-duplex queue pairs — on the simulator, with the same
/// measurement window as [`run_sim_experiment`].
///
/// Task layout: tasks `0..n` are the per-connection server threads, tasks
/// `n..2n` the clients. Semaphores follow the duplex convention
/// (`2c` server thread, `2c + 1` client).
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_duplex_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    n_clients: usize,
    msgs_per_client: u64,
    max_spin: u32,
) -> SimExperimentResult {
    use crate::duplex::DuplexChannel;
    let n = n_clients;
    assert!(n >= 1);
    let multiprocessor = machine.cpus > 1;
    let costs = SimCosts::from_machine(machine);
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 * n {
        ids.sems.push(b.add_sem(0));
    }
    let start_barrier = b.add_barrier(n as u32);
    let ids = Arc::new(ids);
    let channel = DuplexChannel::create(n, 64).expect("duplex channel");
    let metrics = Arc::new(MetricsRegistry::new());

    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(c);
        b.spawn(format!("srv{c}"), move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, c).with_metrics(sink);
            let _ = ch.serve_connection(&os, c, max_spin, |m| m);
            sys.mark(MARK_SERVER_DONE);
        });
    }
    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(n as u32 + c);
        b.spawn(format!("client{c}"), move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, n as u32 + c).with_metrics(sink);
            sys.barrier(start_barrier);
            sys.mark(MARK_FIRST_SEND);
            for i in 0..msgs_per_client {
                let v = ch.echo(&os, c, i as f64, max_spin);
                assert_eq!(v, i as f64, "duplex echo corrupted");
            }
            ch.disconnect(&os, c, max_spin);
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "duplex experiment did not complete: {:?} ({n} clients)",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let messages = msgs_per_client * n as u64;
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let servers = n as u32;
    SimExperimentResult {
        throughput: messages as f64 / ms,
        latency_us: elapsed.as_micros_f64() / messages.max(1) as f64,
        elapsed,
        messages,
        server_metrics: metrics.aggregate(|t| t < servers),
        client_metrics: metrics.aggregate(|t| t >= servers),
        client_latency: metrics.aggregate_latency(|t| t >= servers),
        trace: None,
        report,
    }
}

/// Measures the asynchronous-batching gain of §1 on the simulator: one
/// client posts `batch` requests before collecting the replies, against a
/// BSW echo server. `batch == 1` degenerates to the synchronous protocol;
/// larger batches amortize the sleep/wake-up system calls across the
/// window ("the server ... can handle requests and respond without
/// invoking kernel services until all pending requests are processed").
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_async_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    batch: u64,
    msgs: u64,
) -> SimExperimentResult {
    use crate::asynch::AsyncClient;
    assert!(batch >= 1);
    let costs = SimCosts::from_machine(machine);
    let multiprocessor = machine.cpus > 1;
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 {
        ids.sems.push(b.add_sem(0));
    }
    let ids = Arc::new(ids);
    let channel = Channel::create(&ChannelConfig {
        queue_capacity: (batch as usize + 2).max(64),
        ..ChannelConfig::new(1)
    })
    .expect("channel creation");

    let metrics = Arc::new(MetricsRegistry::new());
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(0);
        b.spawn("server", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 0).with_metrics(sink);
            let _ = crate::server::run_echo_server(&ch, &os, WaitStrategy::Bsw);
            sys.mark(MARK_SERVER_DONE);
        });
    }
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(1);
        b.spawn("client", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 1).with_metrics(sink);
            sys.mark(MARK_FIRST_SEND);
            let mut ac = AsyncClient::new(&ch, &os, 0);
            let mut issued = 0u64;
            while issued < msgs {
                let burst = batch.min(msgs - issued);
                for i in 0..burst {
                    assert!(
                        ac.post(crate::Message::echo(0, (issued + i) as f64)),
                        "queue sized for the batch"
                    );
                }
                for (i, m) in ac.collect_all().into_iter().enumerate() {
                    assert_eq!(m.value, (issued + i as u64) as f64);
                }
                issued += burst;
            }
            let ep = ch.client(&os, 0, WaitStrategy::Bsw);
            ep.disconnect();
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "async experiment did not complete: {:?} (batch {batch})",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let ms = elapsed.as_nanos() as f64 / 1e6;
    SimExperimentResult {
        throughput: msgs as f64 / ms,
        latency_us: elapsed.as_micros_f64() / msgs.max(1) as f64,
        elapsed,
        messages: msgs,
        server_metrics: metrics.task_snapshot(0),
        client_metrics: metrics.task_snapshot(1),
        client_latency: metrics.task_latency(1),
        trace: None,
        report,
    }
}

/// Results of a mixed (multiprogrammed) experiment: the IPC workload plus
/// a background batch job competing for the same processor.
#[derive(Debug, Clone)]
pub struct MixedExperimentResult {
    /// IPC echo throughput in messages/ms.
    pub ipc_throughput: f64,
    /// CPU time the batch job accumulated during the IPC run, as a share
    /// of the elapsed window (1.0 = a whole processor's worth).
    pub batch_share: f64,
    /// Full simulator report.
    pub report: SimReport,
}

/// The paper's *thesis*, §1, as an experiment: "To obtain the best overall
/// system throughput, particularly in multi-programmed environments, the
/// IPC mechanism should support blocking semantics."
///
/// One client with per-request think time runs the echo workload against
/// the server under `mechanism`, while a background batch job grinds pure
/// CPU on the same machine. Busy-waiting IPC burns the processor the batch
/// job could have used; blocking IPC hands it over. The result reports
/// both the IPC throughput and the batch job's share of the window.
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_mixed_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    mechanism: Mechanism,
    msgs: u64,
    think: VDur,
) -> MixedExperimentResult {
    use core::sync::atomic::{AtomicBool, Ordering};
    let costs = SimCosts::from_machine(machine);
    let multiprocessor = machine.cpus > 1;
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 {
        ids.sems.push(b.add_sem(0));
    }
    for _ in 0..2 {
        ids.msgqs.push(b.add_msgq(64));
    }
    let ids = Arc::new(ids);
    let channel = Channel::create(&ChannelConfig::new(1)).expect("channel creation");
    let stop = Arc::new(AtomicBool::new(false));

    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        b.spawn("server", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 0);
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let _ = crate::server::run_echo_server(&ch, &os, strategy);
                }
                Mechanism::SysV => {
                    let _ = crate::sysv::run_sysv_echo_server(&os, 1);
                }
                Mechanism::Throttled {
                    max_spin,
                    wake_batch,
                } => {
                    let _ = crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch);
                }
            }
            sys.mark(MARK_SERVER_DONE);
        });
    }
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let stop = Arc::clone(&stop);
        b.spawn("client", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 1);
            sys.mark(MARK_FIRST_SEND);
            for i in 0..msgs {
                if !think.is_zero() {
                    // Think time is *idle* time (the paper's infrequent
                    // clients are waiting on users or I/O, not computing).
                    sys.sleep(think);
                }
                match mechanism {
                    Mechanism::UserLevel(strategy) => {
                        let ep = ch.client(&os, 0, strategy);
                        assert_eq!(ep.echo(i as f64), i as f64);
                    }
                    Mechanism::SysV => {
                        assert_eq!(sysv_echo(&os, 0, i as f64), i as f64);
                    }
                    Mechanism::Throttled { max_spin, .. } => {
                        let ep = ch.client(&os, 0, WaitStrategy::Bsls { max_spin });
                        assert_eq!(ep.echo(i as f64), i as f64);
                    }
                }
            }
            match mechanism {
                Mechanism::UserLevel(strategy) => ch.client(&os, 0, strategy).disconnect(),
                Mechanism::SysV => sysv_disconnect(&os, 0),
                Mechanism::Throttled { max_spin, .. } => ch
                    .client(&os, 0, WaitStrategy::Bsls { max_spin })
                    .disconnect(),
            }
            stop.store(true, Ordering::Release);
        });
    }
    {
        let stop = Arc::clone(&stop);
        b.spawn("batch", move |sys| {
            while !stop.load(core::sync::atomic::Ordering::Acquire) {
                sys.work(VDur::micros(200));
            }
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "mixed experiment did not complete: {:?}",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let batch_cpu = report.task("batch").unwrap().stats.cpu_time;
    MixedExperimentResult {
        ipc_throughput: msgs as f64 / ms,
        batch_share: batch_cpu.as_nanos() as f64
            / (elapsed.as_nanos() as f64 * machine.cpus as f64).max(1.0),
        report,
    }
}

/// How the clients of a [`ThreadEcho`] call and its server serves.
#[derive(Debug, Clone)]
pub enum CallPath {
    /// Infallible calls against the mechanism's classic server loop — the
    /// paper's workload.
    Infallible,
    /// Every call goes through
    /// [`call_deadline`](crate::ClientEndpoint::call_deadline) and the
    /// server runs [`run_resilient_server`](crate::run_resilient_server).
    /// Without a fault plan nothing faults, so any latency difference
    /// against [`CallPath::Infallible`] *is* the robustness overhead — the
    /// number the `figures faults` experiment regresses on.
    Deadline {
        /// The resilient server's liveness-scan period.
        heartbeat: Duration,
        /// Bound on every client call.
        deadline: Duration,
        /// Kills (or delays) one task mid-protocol: the plan's victim `0`
        /// is the server, `1 + c` client `c`. A kill is a panic that
        /// unwinds the victim through its
        /// [`DeathWatch`](crate::DeathWatch), which tombstones the queue
        /// it consumes; the result reports what the failure model did.
        faults: Option<Arc<crate::FaultPlan>>,
    },
}

/// One echo run on real threads (the adoptable backend): `clients` client
/// threads barrage one server thread, task `0`; client `c` is task `1 + c`.
#[derive(Debug, Clone)]
pub struct ThreadEcho {
    /// IPC mechanism under test. [`CallPath::Deadline`] needs
    /// [`Mechanism::UserLevel`].
    pub mechanism: Mechanism,
    /// Number of client threads.
    pub clients: usize,
    /// Echo round trips per client (before the disconnect).
    pub msgs_per_client: u64,
    /// Channel queue representation ([`QueueKind::Ring`] for the wait-free
    /// arena rings, [`QueueKind::TwoLock`] for the pooled linked queue).
    /// The protocol layer is untouched — this is how the bench matrix
    /// isolates the queue swap's cost.
    pub queue_kind: QueueKind,
    /// Per-task trace ring capacity (host-time stamps, oldest dropped on
    /// overflow); `None` disables tracing.
    pub trace_capacity: Option<usize>,
    /// Infallible or deadline-bounded calls.
    pub call_path: CallPath,
}

impl ThreadEcho {
    /// The infallible, untraced run on the default queue kind.
    pub fn new(mechanism: Mechanism, clients: usize, msgs_per_client: u64) -> Self {
        ThreadEcho {
            mechanism,
            clients,
            msgs_per_client,
            queue_kind: QueueKind::default(),
            trace_capacity: None,
            call_path: CallPath::Infallible,
        }
    }
}

/// Outcome of one client thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFaultOutcome {
    /// Completed every echo and disconnected cleanly.
    Completed,
    /// The failure model surfaced: the client stopped after `completed`
    /// echoes with `error` (e.g. [`IpcError::PeerDead`](crate::IpcError::PeerDead)
    /// once the killed server was detected).
    Failed {
        /// Echo round trips that succeeded before the error.
        completed: u64,
        /// The error that ended the session.
        error: crate::IpcError,
    },
    /// This client was the fault plan's victim and was killed.
    Killed,
}

/// Results of one [`run_thread_echo`] run.
#[derive(Debug, Clone)]
pub struct ThreadEchoResult {
    /// The barrage: first client's barrier release → last client's own
    /// completion (after its disconnect).
    pub elapsed: Duration,
    /// ECHO messages requested (disconnects excluded).
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Server outcome: `Ok` when its loop returned, `Err` with the panic
    /// message when it was the fault plan's victim.
    pub server: Result<crate::ServerRun, String>,
    /// Protocol events recorded by the server thread.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Per-client outcome, indexed by client id.
    pub clients: Vec<ClientFaultOutcome>,
    /// Raw per-message round-trip samples in nanoseconds, in (client,
    /// message) order.
    pub client_samples: Vec<u64>,
    /// Whether each client's reply queue ended poisoned.
    pub reply_poisoned: Vec<bool>,
    /// Whether the shared receive queue ended poisoned.
    pub receive_poisoned: bool,
    /// The unified event trace, present when the run enabled tracing —
    /// under a fault plan, the timeline of the injected kill, the
    /// survivor's detection and the poison broadcast.
    pub trace: Option<UnifiedTrace>,
}

/// What one client thread hands back to its runner.
struct ClientRun {
    outcome: ClientFaultOutcome,
    samples: Vec<u64>,
    /// Right after the start barrier released this client.
    started: Option<Instant>,
    /// Right after its last call returned.
    finished: Instant,
}

/// What a harness thread returns: a server's run or a client's.
enum TaskEnd {
    Server(Box<Result<crate::ServerRun, String>>),
    Client(ClientRun),
}

/// Splits joined tasks into server and client results, each in spawn
/// order.
fn split_ends(ends: Vec<TaskEnd>) -> (Vec<Result<crate::ServerRun, String>>, Vec<ClientRun>) {
    let (mut servers, mut clients) = (Vec::new(), Vec::new());
    for end in ends {
        match end {
            TaskEnd::Server(s) => servers.push(*s),
            TaskEnd::Client(c) => clients.push(c),
        }
    }
    (servers, clients)
}

/// The barrage's wall-clock span: first client's barrier release → last
/// client's own completion. Timed by the clients themselves, so the
/// watchdog's join poll never enters it.
fn barrage_span(runs: &[ClientRun]) -> Duration {
    let start = runs.iter().filter_map(|r| r.started).min();
    let end = runs.iter().map(|r| r.finished).max();
    start
        .zip(end)
        .map_or(Duration::ZERO, |(s, e)| e.saturating_duration_since(s))
}

/// Stack of every harness thread: the task loops are shallow, and the
/// 512-client load cells would otherwise reserve a gigabyte of stacks.
const TASK_STACK: usize = 512 * 1024;

/// Spawns a named harness thread, packaged for [`watchdog_join`].
fn spawn_task<T: Send + 'static>(
    name: String,
    id: u32,
    f: impl FnOnce() -> T + Send + 'static,
) -> (String, u32, std::thread::JoinHandle<T>) {
    let h = std::thread::Builder::new()
        .name(name.clone())
        .stack_size(TASK_STACK)
        .spawn(f)
        .expect("spawn harness thread");
    (name, id, h)
}

/// Runs `f`; when `catch` (a fault plan may kill this task), a panic
/// becomes `Err(message)` instead of propagating to the watchdog.
fn catching<T>(catch: bool, f: impl FnOnce() -> T) -> Result<T, String> {
    if !catch {
        return Ok(f());
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "task panicked".into())
    })
}

/// Fires the fault plan at one of `task`'s fault points.
fn inject(plan: Option<&crate::FaultPlan>, task: u32, os: &crate::NativeTask) {
    use crate::fault::FaultAction;
    let Some(plan) = plan else { return };
    match plan.fire(task) {
        Some(FaultAction::Kill) => {
            os.record(crate::metrics::ProtoEvent::FaultInjected);
            panic!("injected fault: task {task} killed at op {}", plan.at_op)
        }
        Some(FaultAction::DelayNanos(ns)) => {
            os.record(crate::metrics::ProtoEvent::FaultInjected);
            std::thread::sleep(Duration::from_nanos(ns))
        }
        Some(FaultAction::DropWakeup) | None => {}
    }
}

/// Runs the echo workload on real threads.
///
/// The join is bounded by a watchdog (plus `deadline × msgs` on the
/// deadline path): a protocol bug, or a fault that escapes the failure
/// model, panics with a report naming each wedged thread instead of
/// hanging the harness.
///
/// # Panics
///
/// On a wedged thread, or [`CallPath::Deadline`] with a non-user-level
/// mechanism; without a fault plan also on echo corruption or any
/// panicking thread (with one, a panic is that task's death).
pub fn run_thread_echo(spec: &ThreadEcho) -> ThreadEchoResult {
    use crate::fault::{DeathWatch, ServerDeathWatch};
    use crate::Message;
    let n = spec.clients;
    let msgs = spec.msgs_per_client;
    let (heartbeat, deadline, faults) = match &spec.call_path {
        CallPath::Infallible => (None, None, None),
        CallPath::Deadline {
            heartbeat,
            deadline,
            faults,
        } => (Some(*heartbeat), Some(*deadline), faults.clone()),
    };
    // The clients' wait strategy; `None` for the kernel-queue baseline.
    let strategy = match spec.mechanism {
        Mechanism::UserLevel(s) => Some(s),
        Mechanism::Throttled { max_spin, .. } => Some(WaitStrategy::Bsls { max_spin }),
        Mechanism::SysV => None,
    };
    assert!(
        deadline.is_none() || matches!(spec.mechanism, Mechanism::UserLevel(_)),
        "the deadline path needs a user-level mechanism"
    );
    let catch = faults.is_some();
    let channel = Channel::create(&ChannelConfig::new(n).with_queue_kind(spec.queue_kind))
        .expect("channel creation");
    let mut cfg = NativeConfig::for_clients(n);
    cfg.trace_capacity = spec.trace_capacity;
    let os = NativeOs::new(cfg);
    let barrier = Arc::new(std::sync::Barrier::new(n));

    let mut tasks = vec![{
        let (ch, os, mechanism, faults) =
            (channel.clone(), os.task(0), spec.mechanism, faults.clone());
        spawn_task("server".into(), 0, move || {
            TaskEnd::Server(Box::new(catching(catch, || match mechanism {
                Mechanism::UserLevel(s) => match heartbeat {
                    Some(heartbeat) => {
                        // Tombstone the whole channel if this thread dies:
                        // every client fails fast instead of riding out
                        // its deadline.
                        let _watch = ServerDeathWatch::arm(&ch, &os);
                        crate::server::run_resilient_server(&ch, &os, s, heartbeat, |m| {
                            inject(faults.as_deref(), 0, &os);
                            m
                        })
                    }
                    None => crate::server::run_echo_server(&ch, &os, s),
                },
                Mechanism::SysV => {
                    let r = crate::sysv::run_sysv_echo_server(&os, n as u32);
                    crate::ServerRun {
                        processed: r.processed,
                        disconnects: n as u32,
                        malformed: r.malformed,
                        ..Default::default()
                    }
                }
                Mechanism::Throttled {
                    max_spin,
                    wake_batch,
                } => crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch),
            })))
        })
    }];

    tasks.extend((0..n as u32).map(|c| {
        let (ch, os, barrier, faults) = (
            channel.clone(),
            os.task(1 + c),
            Arc::clone(&barrier),
            faults.clone(),
        );
        spawn_task(format!("client{c}"), 1 + c, move || {
            let mut samples = Vec::with_capacity(msgs as usize);
            let mut started = None;
            let outcome = catching(catch, || {
                let _watch = DeathWatch::arm(ch.reply_queue(c), &os);
                let ep = strategy.map(|s| ch.client(&os, c, s));
                let call = |m: Message| match (&ep, deadline) {
                    (None, _) => Ok(crate::sysv::sysv_call(&os, c, m)),
                    (Some(ep), None) => Ok(ep.call(m)),
                    (Some(ep), Some(d)) => ep.call_deadline(m, d),
                };
                barrier.wait();
                started = Some(Instant::now());
                for i in 0..msgs {
                    inject(faults.as_deref(), 1 + c, &os);
                    let t0 = Instant::now();
                    match call(Message::echo(c, i as f64)) {
                        Ok(reply) => {
                            samples.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(reply.value, i as f64, "echo corrupted");
                        }
                        Err(error) => {
                            return ClientFaultOutcome::Failed {
                                completed: i,
                                error,
                            }
                        }
                    }
                }
                match call(Message::disconnect(c)) {
                    Ok(_) => ClientFaultOutcome::Completed,
                    Err(error) => ClientFaultOutcome::Failed {
                        completed: msgs,
                        error,
                    },
                }
            })
            .unwrap_or(ClientFaultOutcome::Killed);
            TaskEnd::Client(ClientRun {
                outcome,
                samples,
                started,
                finished: Instant::now(),
            })
        })
    }));

    let timeout = WATCHDOG_JOIN + deadline.unwrap_or_default() * (msgs as u32).max(1);
    let (mut servers, runs) = split_ends(watchdog_join(tasks, timeout, os.traces()));
    let elapsed = barrage_span(&runs);
    let messages = msgs * n as u64;
    let reg = os.metrics().expect("for_clients enables metrics");
    let trace = os.traces().map(|t| {
        let mut names = vec![(0, "server".to_string())];
        names.extend((0..n as u32).map(|c| (1 + c, format!("client{c}"))));
        t.collect(&names)
    });
    ThreadEchoResult {
        throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
        elapsed,
        messages,
        server: servers.pop().expect("one server task"),
        server_metrics: reg.task_snapshot(0),
        client_metrics: reg.aggregate(|t| t != 0),
        clients: runs.iter().map(|r| r.outcome.clone()).collect(),
        client_samples: runs.into_iter().flat_map(|r| r.samples).collect(),
        reply_poisoned: (0..n as u32)
            .map(|c| channel.reply_queue(c).is_poisoned())
            .collect(),
        receive_poisoned: channel.receive_queue().is_poisoned(),
        trace,
    }
}

/// How long [`watchdog_join`] waits before declaring the experiment
/// wedged. Generous — a healthy cell finishes in well under a second —
/// but bounded, so a protocol bug (or an injected fault the failure model
/// failed to contain) produces a diagnosable panic instead of a hung
/// process that CI has to `SIGKILL` reportlessly.
const WATCHDOG_JOIN: Duration = Duration::from_secs(30);

/// A participant [`watchdog_join`] can poll without blocking: a harness
/// thread, or a forked child of the cross-process runs.
trait Joinable {
    type Output;
    fn finished(&self) -> bool;
    fn join(self) -> Self::Output;
}

impl<T> Joinable for std::thread::JoinHandle<T> {
    type Output = T;
    fn finished(&self) -> bool {
        self.is_finished()
    }
    /// Propagates the thread's panic verbatim.
    fn join(self) -> T {
        std::thread::JoinHandle::join(self).unwrap_or_else(|p| std::panic::resume_unwind(p))
    }
}

/// Joins experiment tasks with a watchdog: waits up to `timeout` for all
/// of them and returns their outputs in input order, propagating a
/// thread's panic as soon as it is seen. If some never finish, panics
/// with a report naming each wedged task and — when tracing is enabled —
/// the last trace point it recorded before going quiet, which is usually
/// enough to identify the lost sleep/wake-up race without re-running
/// under a debugger. Wedged children are killed as the unwind drops them.
fn watchdog_join<J: Joinable>(
    tasks: Vec<(String, u32, J)>,
    timeout: Duration,
    traces: Option<&TraceRegistry>,
) -> Vec<J::Output> {
    let deadline = Instant::now() + timeout;
    let mut done: Vec<Option<J::Output>> = tasks.iter().map(|_| None).collect();
    let mut pending: Vec<_> = tasks.into_iter().enumerate().collect();
    loop {
        let mut still = Vec::with_capacity(pending.len());
        for (i, (name, id, task)) in pending {
            if task.finished() {
                done[i] = Some(task.join());
            } else {
                still.push((i, (name, id, task)));
            }
        }
        pending = still;
        if pending.is_empty() {
            return done.into_iter().map(|o| o.expect("joined")).collect();
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let names: Vec<(u32, String)> = pending
        .iter()
        .map(|(_, (name, id, _))| (*id, name.clone()))
        .collect();
    let collected = traces.map(|t| t.collect(&names));
    let mut report = format!(
        "watchdog: {} task(s) still running after {timeout:?}:",
        names.len()
    );
    for (id, name) in &names {
        let last = collected
            .as_ref()
            .and_then(|ut| ut.records.iter().rev().find(|r| r.task_id == *id));
        match last {
            Some(r) => {
                report += &format!(
                    "\n  {name} wedged; last trace point {:?} at {} ns",
                    r.point, r.ts_nanos
                );
            }
            None => report += &format!("\n  {name} wedged (no trace records)"),
        }
    }
    panic!("{report}");
}

/// Results of one WaitSet load-matrix cell: `n` clients multiplexed over
/// a [`ShardedServer`](crate::ShardedServer) under open-loop arrival.
#[derive(Debug, Clone)]
pub struct WaitsetLoadResult {
    /// First client's barrier release → last client's own completion.
    pub elapsed: Duration,
    /// ECHO messages processed (disconnects excluded).
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Shards the topology ran with.
    pub shards: usize,
    /// Per-shard worker results.
    pub server_runs: Vec<crate::ServerRun>,
    /// Protocol events aggregated over every shard worker.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events aggregated over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Raw per-message latency samples in nanoseconds, in (client,
    /// message) order. **Open-loop**: each sample is measured from
    /// the message's *scheduled* send time, not the actual one, so the
    /// queueing delay a late-running client inflicts on itself is charged
    /// to the system — the coordinated-omission correction load
    /// generators need for honest p99s.
    pub client_samples: Vec<u64>,
}

/// Runs the WaitSet/sharded-server echo workload under **open-loop
/// arrival**: each of `n_clients` client threads schedules message `m` at
/// `phase + m × interval` from the barrier (phases staggered across
/// clients so arrivals spread over the interval instead of bursting),
/// sleeps until the scheduled instant, then issues a synchronous call.
/// A reply arriving late does not push back the *schedule* — the next
/// message is already due, and the lateness lands in its sample.
///
/// Pass `Duration::ZERO` for a closed-loop barrage.
///
/// # Panics
///
/// On echo corruption, a poisoned thread, or the 30 s watchdog.
pub fn run_waitset_load_experiment(
    n_clients: usize,
    msgs_per_client: u64,
    n_shards: usize,
    interval: Duration,
) -> WaitsetLoadResult {
    use crate::waitset::{ShardedConfig, ShardedServer};

    let srv = Arc::new(ShardedServer::create(ShardedConfig::new(n_clients, n_shards)).expect(
        "sharded topology creation only fails on arena exhaustion, which the config sizing prevents",
    ));
    let mut cfg = NativeConfig::for_clients(0);
    cfg.n_sems = srv.config().n_sems();
    cfg.n_msgqs = 0;
    cfg.full_backoff = Duration::from_micros(200);
    let os = NativeOs::new(cfg);

    let mut tasks: Vec<_> = (0..n_shards)
        .map(|s| {
            let (srv, os) = (Arc::clone(&srv), os.task(s as u32));
            spawn_task(format!("shard{s}"), s as u32, move || {
                TaskEnd::Server(Box::new(Ok(srv.run_worker(&os, s, |m| m))))
            })
        })
        .collect();

    let barrier = Arc::new(std::sync::Barrier::new(n_clients));
    tasks.extend((0..n_clients as u32).map(|c| {
        let (srv, os, barrier) = (
            Arc::clone(&srv),
            os.task(n_shards as u32 + c),
            Arc::clone(&barrier),
        );
        // Arrival phases staggered across the client population.
        let phase = interval.mul_f64(c as f64 / n_clients.max(1) as f64);
        spawn_task(format!("load{c}"), n_shards as u32 + c, move || {
            let mut samples = Vec::with_capacity(msgs_per_client as usize);
            let client = srv.client(&os, c);
            barrier.wait();
            let start = Instant::now();
            for m in 0..msgs_per_client {
                let due = phase + interval * m as u32;
                loop {
                    let now = start.elapsed();
                    if now >= due {
                        break;
                    }
                    // Sleep-based pacing: on an overcommitted host
                    // (CI is often 1-2 cores) spinning here would
                    // starve the server and corrupt every sample.
                    std::thread::sleep(due - now);
                }
                let v = client.echo(m as f64);
                assert_eq!(v, m as f64, "echo corrupted under load");
                samples.push((start.elapsed() - due).as_nanos().max(1) as u64);
            }
            client.disconnect();
            TaskEnd::Client(ClientRun {
                outcome: ClientFaultOutcome::Completed,
                samples,
                started: Some(start),
                finished: Instant::now(),
            })
        })
    }));

    let (server_runs, runs) = split_ends(watchdog_join(tasks, WATCHDOG_JOIN, os.traces()));
    let elapsed = barrage_span(&runs);
    let messages = msgs_per_client * n_clients as u64;
    let reg = os.metrics().expect("for_clients enables metrics");
    WaitsetLoadResult {
        throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
        elapsed,
        messages,
        shards: n_shards,
        server_runs: server_runs
            .into_iter()
            .map(|r| r.expect("shard workers do not catch panics"))
            .collect(),
        server_metrics: reg.aggregate(|t| (t as usize) < n_shards),
        client_metrics: reg.aggregate(|t| (t as usize) >= n_shards),
        client_samples: runs.into_iter().flat_map(|r| r.samples).collect(),
    }
}

/// Real-process experiments: the echo workload with **forked child
/// clients** against the parent's server, over a memfd-backed
/// [`ShmArena`](usipc_shm::ShmArena) — the paper's actual deployment
/// shape ("user-level IPC" means *cross-address-space*), where the
/// thread-mode harness above is only the convenient stand-in.
///
/// Every run shares one scaffold: [`World::build`] lays out the segment
/// and publishes a [`ProcRoot`], each child bootstraps from nothing but
/// the inherited fd through [`Attached::new`], a ready/go barrier
/// ([`World::release`]) keeps attach cost out of the measurement, and
/// results come home through per-client [`ProcCell`]s.
///
/// Fork discipline: children are forked **before** any parent thread
/// starts, and the caller must be effectively single-threaded at the call
/// (a forked child reproduces only the calling thread; another thread
/// holding the allocator lock at fork time would deadlock the child). Run
/// the drills from a `main`, or from a test binary that runs its
/// scenarios sequentially in one test function.
///
/// Linux-only (fork, memfd, pidfd): gated exactly like [`crate::proc`].
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod proc_harness {
    use super::*;
    use crate::metrics::N_EVENTS;
    use crate::proc::{ChildProc, ExitStatus};
    use crate::telemetry::{Role, TelemetryPlane, TelemetryReading};
    use crate::{ChannelRoot, CountingSem, ServerRun};
    use core::ops::Range;
    use core::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use usipc_shm::{ShmArena, ShmPtr, ShmSlice};

    impl Joinable for ChildProc {
        type Output = ExitStatus;
        fn finished(&self) -> bool {
            self.dead_within(Duration::ZERO)
        }
        fn join(self) -> ExitStatus {
            self.wait().unwrap_or_else(|e| panic!("wait4: {e:?}"))
        }
    }

    /// Per-child result cell, written by the child and read by the parent.
    /// Lives in the shared arena — the only way data crosses back, since a
    /// forked child's heap is a private copy-on-write copy.
    #[repr(C)]
    struct ProcCell {
        /// The child's final [`MetricsSnapshot`] in
        /// [`to_array`](MetricsSnapshot::to_array) form.
        events: [AtomicU64; N_EVENTS],
        /// Echo round trips completed so far (live; the drills watch it to
        /// time their SIGKILLs mid-traffic).
        progress: AtomicU64,
        /// Requests re-issued after a
        /// [`DROPPED`](crate::msg::opcode::DROPPED) notice.
        retries: AtomicU64,
        /// Segment-clock nanoseconds of the client's own completion (after
        /// its disconnect).
        done_at: AtomicU64,
        /// 0 while running, 1 once `events` is fully stored.
        state: AtomicU32,
    }

    // SAFETY: every field is an atomic (valid for all bit patterns) and
    // the struct holds no host pointers.
    unsafe impl usipc_shm::ShmSafe for ProcCell {}

    impl ProcCell {
        fn new() -> Self {
            ProcCell {
                events: std::array::from_fn(|_| AtomicU64::new(0)),
                progress: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                done_at: AtomicU64::new(0),
                state: AtomicU32::new(0),
            }
        }

        fn finalized(&self) -> bool {
            self.state.load(Ordering::Acquire) == 1
        }

        /// The child's final counters.
        fn snapshot(&self) -> MetricsSnapshot {
            assert!(self.finalized(), "cell not finalized");
            let mut a = [0u64; N_EVENTS];
            for (dst, src) in a.iter_mut().zip(self.events.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            MetricsSnapshot::from_array(&a)
        }
    }

    /// The per-run scalars every participant reads from the root.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        /// Number of clients (children validate their id against it).
        n_clients: u32,
        /// Clients `0..n_victims` barrage endlessly: the parent's SIGKILL
        /// is their only exit, so the kill provably lands mid-conversation.
        n_victims: u32,
        /// Echo round trips per client.
        msgs_per_client: u64,
        /// Echo requests a forked server serves before SIGKILLing itself
        /// **mid-handler** — the request in hand is consumed but its reply
        /// never commits, which is the nastiest kill site the explorer
        /// sweeps surface. Read only by a forked server.
        kill_site: u64,
        /// CPU every participant pins itself to (`-1`: run free). Pinning
        /// everyone to one CPU reproduces the paper's uniprocessor regime
        /// on a multicore host — the regime where BSW's four-syscall
        /// round trip is exact instead of a ceiling.
        pin_cpu: i32,
        /// Nonzero: client `n_clients - 1` is the late prober of the
        /// pinned takeover drill.
        prober: u32,
    }

    impl Shape {
        fn new(n_clients: usize, msgs_per_client: u64) -> Self {
            Shape {
                n_clients: n_clients as u32,
                n_victims: 0,
                msgs_per_client,
                kill_site: 0,
                pin_cpu: -1,
                prober: 0,
            }
        }
    }

    /// The bootstrap object published as the arena root: everything a
    /// child needs to reconstruct the channel and the shared semaphore
    /// table from nothing but the inherited memfd file descriptor.
    #[repr(C)]
    struct ProcRoot {
        /// Ready barrier: each child `V`s once it is attached and has
        /// built its endpoint.
        ready: CountingSem,
        /// Go signal: the parent `V`s once per client to start the barrage
        /// (so the measurement window excludes attach cost).
        go: CountingSem,
        /// Gate for the late prober: the parent releases it only after
        /// the takeover completed and every other client finished. Lives
        /// outside the channel, so the fsck never touches it.
        prober_go: CountingSem,
        /// The channel's root object (allocated with
        /// [`Channel::create_in`], *not* published as the arena root —
        /// this struct is).
        channel: ShmPtr<ChannelRoot>,
        /// The shared semaphore table from [`NativeOs::new_shared`].
        sems: ShmSlice<CountingSem>,
        /// One result cell per client.
        cells: ShmSlice<ProcCell>,
        /// Raw round-trip samples: client `c` writes nanosecond sample
        /// `i` at index `c * msgs_per_client + i`. Empty when the run
        /// does not collect samples.
        samples: ShmSlice<AtomicU64>,
        shape: Shape,
    }

    // SAFETY: sems in shared-futex mode, offset handles and plain
    // scalars only; no host pointers. Fields mutated after placement
    // (the sems' words, the cells) are atomics.
    unsafe impl usipc_shm::ShmSafe for ProcRoot {}

    /// Child exit codes (`0` success, `101` reserved by
    /// [`ChildProc::spawn`] for panics).
    const EXIT_ATTACH_FAILED: i32 = 2;
    const EXIT_NO_ROOT: i32 = 3;
    const EXIT_ECHO_CORRUPTED: i32 = 4;
    const EXIT_PIN_FAILED: i32 = 5;
    /// Observer child: the segment carries no telemetry plane.
    const EXIT_NO_TELEMETRY: i32 = 6;
    /// Observer child: no slot's progress advanced before the deadline.
    const EXIT_STALE: i32 = 7;
    /// Observer child: a later reading had a *smaller* cumulative counter
    /// than an earlier one — a torn or inconsistent snapshot.
    const EXIT_TORN: i32 = 8;

    /// Forks a child running `body`; its `Err` is the exit code.
    fn fork(body: impl FnOnce() -> Result<(), i32>) -> ChildProc {
        ChildProc::spawn(move || body().err().unwrap_or(0)).expect("fork")
    }

    /// Joins one parent thread or child under the watchdog.
    fn join_one<J: Joinable>(task: (String, u32, J)) -> J::Output {
        watchdog_join(vec![task], WATCHDOG_JOIN, None)
            .pop()
            .expect("one task")
    }

    /// Reaps `children` under the watchdog and asserts each exited 0.
    fn reap_all(children: Vec<ChildProc>, who: &str) -> Vec<ExitStatus> {
        let named = children
            .into_iter()
            .enumerate()
            .map(|(i, child)| (format!("{who} {i}"), 0, child))
            .collect();
        let exits = watchdog_join(named, WATCHDOG_JOIN, None);
        for (i, e) in exits.iter().enumerate() {
            assert!(e.success(), "{who} {i} failed: {e:?}");
        }
        exits
    }

    /// Polls `cond` every `nap` (a yield when zero) until it holds;
    /// panics with `what` past the watchdog bound.
    fn wait_until(what: &str, nap: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + WATCHDOG_JOIN;
        while !cond() {
            assert!(Instant::now() < deadline, "watchdog: {what}");
            if nap.is_zero() {
                std::thread::yield_now();
            } else {
                std::thread::sleep(nap);
            }
        }
    }

    /// The parent's handles on one run's shared world.
    struct World {
        arena: Arc<ShmArena>,
        os: Arc<NativeOs>,
        channel: Channel,
        root: ShmPtr<ProcRoot>,
        plane: Option<TelemetryPlane>,
        /// The memfd every child inherits.
        fd: i32,
    }

    impl World {
        /// Builds the whole shared world — memfd arena, in-arena channel,
        /// shared semaphore table, result cells, optional sample slots and
        /// telemetry plane (`Some(flight ring capacity)`, 0 for no flight
        /// recorder), bootstrap root.
        fn build(
            shape: Shape,
            queue_kind: QueueKind,
            samples: bool,
            telemetry: Option<usize>,
        ) -> World {
            use core::mem::{align_of, size_of};
            let n = shape.n_clients as usize;
            assert!(n >= 1);
            let ch_cfg = ChannelConfig::new(n).with_queue_kind(queue_kind);
            let n_samples = if samples {
                n * shape.msgs_per_client as usize
            } else {
                0
            };
            // Telemetry slots follow the task-id convention: slot 0 the
            // server, slot 1+c client c. Flight rings additionally cover
            // the monitor task (1 + n) the kill drill uses.
            let flight_tasks = |capacity: usize| if capacity > 0 { 2 + n } else { 0 };
            let telem_bytes = telemetry.map_or(0, |capacity| {
                TelemetryPlane::bytes_needed(1 + n, flight_tasks(capacity), capacity)
            });
            // Exact layout plus per-allocation alignment slack plus the
            // arena header line.
            let cap = ch_cfg.bytes_needed()
                + (1 + n) * size_of::<CountingSem>()
                + align_of::<CountingSem>()
                + n * size_of::<ProcCell>()
                + align_of::<ProcCell>()
                + n_samples * size_of::<AtomicU64>()
                + align_of::<AtomicU64>()
                + size_of::<ProcRoot>()
                + align_of::<ProcRoot>()
                + telem_bytes
                + 256;
            let arena =
                Arc::new(ShmArena::new_memfd(cap).unwrap_or_else(|e| panic!("memfd arena: {e:?}")));
            let (os, sems) = NativeOs::new_shared(NativeConfig::for_clients(n), Arc::clone(&arena))
                .expect("shared semaphore table fits the arena");
            let channel =
                Channel::create_in(Arc::clone(&arena), &ch_cfg).expect("channel fits the arena");
            let cells = arena
                .alloc_slice(n, |_| ProcCell::new())
                .expect("cells fit the arena");
            let samples = arena
                .alloc_slice(n_samples, |_| AtomicU64::new(0))
                .expect("samples fit the arena");
            let plane = telemetry.map(|capacity| {
                let p = TelemetryPlane::create_in(&arena, 1 + n, flight_tasks(capacity), capacity)
                    .expect("telemetry plane fits the arena");
                if let Some(f) = p.flight() {
                    os.arm_flight(f);
                }
                p
            });
            let root = arena
                .alloc(ProcRoot {
                    ready: CountingSem::new_shared(0),
                    go: CountingSem::new_shared(0),
                    prober_go: CountingSem::new_shared(0),
                    channel: channel.root_ptr(),
                    sems,
                    cells,
                    samples,
                    shape,
                })
                .expect("root fits the arena");
            arena.publish_root(root);
            let fd = arena.backing_fd().expect("memfd backing");
            World {
                arena,
                os,
                channel,
                root,
                plane,
                fd,
            }
        }

        fn root(&self) -> &ProcRoot {
            self.arena.get(self.root)
        }

        fn cells(&self) -> &[ProcCell] {
            self.arena.get_slice(self.root().cells)
        }

        /// The ready/go barrier: waits for `participants` children to
        /// attach, then releases every client. Returns the go instant on
        /// the segment clock.
        fn release(&self, participants: usize) -> u64 {
            let pr = self.root();
            for _ in 0..participants {
                assert!(
                    pr.ready.p_timeout(WATCHDOG_JOIN),
                    "a participant never reached the ready barrier"
                );
            }
            let go_at = self.arena.now_nanos();
            for _ in 0..pr.shape.n_clients {
                pr.go.v();
            }
            go_at
        }

        /// Quiescence after a server death: with the server dead no
        /// replies flow, so within a bounded time every running client has
        /// committed its next request and parked in its reply wait
        /// (`awake` down) — after which its only remaining write is the
        /// `P` on its own semaphore, which the fsck leaves strictly alone
        /// for in-flight clients.
        fn quiesce(&self, clients: Range<u32>, what: &str) {
            let cells = self.cells();
            for c in clients {
                wait_until(
                    &format!("client {c} never quiesced {what}"),
                    Duration::ZERO,
                    || cells[c as usize].finalized() || self.channel.reply_queue(c).awake_down(),
                );
            }
        }

        /// Spawns the parent's resilient server (task 0), armed to
        /// tombstone the channel should it die.
        fn serve(
            &self,
            name: &str,
            strategy: WaitStrategy,
            heartbeat: Duration,
        ) -> (String, u32, std::thread::JoinHandle<ServerRun>) {
            let (ch, t0) = (self.channel.clone(), self.os.task(0));
            spawn_task(name.into(), 0, move || {
                let _watch = crate::fault::ServerDeathWatch::arm(&ch, &t0);
                crate::server::run_resilient_server(&ch, &t0, strategy, heartbeat, |m| m)
            })
        }

        /// Protocol events summed over every client's final cell.
        fn client_metrics(&self) -> MetricsSnapshot {
            self.cells()
                .iter()
                .fold(MetricsSnapshot::default(), |acc, cell| {
                    acc.add(&cell.snapshot())
                })
        }

        fn drop_retries(&self) -> Vec<u64> {
            self.cells()
                .iter()
                .map(|c| c.retries.load(Ordering::Relaxed))
                .collect()
        }
    }

    /// A forked child's view of the world: a *fresh* mapping of the
    /// inherited memfd (nothing from the parent's address space is
    /// reused), bootstrapped from the arena root.
    struct Attached {
        arena: Arc<ShmArena>,
        root: ShmPtr<ProcRoot>,
        os: Arc<NativeOs>,
    }

    impl Attached {
        /// Attach → root → pin → shared semaphore table.
        fn new(fd: i32) -> Result<Attached, i32> {
            let arena = Arc::new(ShmArena::attach_memfd(fd).map_err(|_| EXIT_ATTACH_FAILED)?);
            let root = arena.root::<ProcRoot>().ok_or(EXIT_NO_ROOT)?;
            let pr = arena.get(root);
            if pr.shape.pin_cpu >= 0
                && (crate::proc::pin_to_cpu(pr.shape.pin_cpu as usize).is_err()
                    || crate::proc::set_sched_batch().is_err())
            {
                return Err(EXIT_PIN_FAILED);
            }
            let os = NativeOs::attach_shared(
                NativeConfig::for_clients(pr.shape.n_clients as usize),
                Arc::clone(&arena),
                pr.sems,
            );
            Ok(Attached { arena, root, os })
        }

        fn root(&self) -> &ProcRoot {
            self.arena.get(self.root)
        }

        fn channel(&self) -> Channel {
            Channel::from_root(Arc::clone(&self.arena), self.root().channel)
        }
    }

    /// The whole life of one forked client: attach, barrier, barrage,
    /// report. Re-issues any request a takeover dropped (the DROPPED
    /// notice is the retry signal the infallible protocol otherwise
    /// lacks), so it survives a server's death without seeing an error.
    fn client_body(fd: i32, c: u32, strategy: WaitStrategy) -> Result<(), i32> {
        let w = Attached::new(fd)?;
        let pr = w.root();
        let shape = pr.shape;
        // Telemetry discovery is in-band: the plane (if the parent made
        // one) hangs off the arena's aux slot, so a child — or any other
        // attacher — needs nothing but the fd. Arm the flight recorder
        // *before* building the task so the handle rides the hot path as
        // a plain `Option`.
        let plane = TelemetryPlane::attach(&w.arena);
        if let Some(f) = plane.as_ref().and_then(|p| p.flight()) {
            w.os.arm_flight(f);
        }
        let task = w.os.task(1 + c);
        let writer = plane
            .as_ref()
            .map(|p| p.writer(1 + c as usize, 1 + c, Role::Client));
        let cell = &w.arena.get_slice(pr.cells)[c as usize];
        let m = shape.msgs_per_client as usize;
        let samples = w
            .arena
            .get_slice(pr.samples)
            .get(c as usize * m..(c as usize + 1) * m)
            .unwrap_or(&[]);
        let snapshot = || {
            w.os.metrics()
                .map(|m| m.task_snapshot(1 + c))
                .unwrap_or_default()
        };

        let prober = shape.prober != 0 && c + 1 == shape.n_clients;
        if prober {
            // Park outside the channel until the parent opens the
            // accounting window; the handle is built afterwards, stamped
            // under the successor's generation.
            pr.ready.v();
            pr.go.p();
            pr.prober_go.p();
        }
        let ch = w.channel();
        let ep = ch.client(&task, c, strategy);
        if !prober {
            pr.ready.v();
            pr.go.p();
        }
        let iters = if c < shape.n_victims {
            u64::MAX
        } else {
            shape.msgs_per_client
        };
        for i in 0..iters {
            let t0 = Instant::now();
            let reply = loop {
                let reply = ep.call(crate::Message::echo(c, i as f64));
                if reply.opcode != crate::msg::opcode::DROPPED {
                    break reply;
                }
                cell.retries.fetch_add(1, Ordering::Relaxed);
            };
            let rt_nanos = t0.elapsed().as_nanos() as u64;
            if reply.value != i as f64 {
                return Err(EXIT_ECHO_CORRUPTED);
            }
            if let Some(slot) = samples.get(i as usize) {
                slot.store(rt_nanos, Ordering::Relaxed);
            }
            cell.progress.fetch_add(1, Ordering::Relaxed);
            if let Some(tw) = &writer {
                // Per-RT cost: four Relaxed adds into this client's own
                // cache-line-padded slot — no semaphore ops, no kernel
                // crossings (the zero-overhead contract the accounting
                // test pins).
                tw.record_latency_nanos(rt_nanos);
                tw.set_progress(i + 1);
                if (i + 1) % 64 == 0 {
                    tw.publish(&snapshot());
                }
            }
        }
        ep.disconnect();
        cell.done_at.store(w.arena.now_nanos(), Ordering::Relaxed);

        let snap = snapshot();
        if let Some(tw) = &writer {
            tw.publish(&snap);
        }
        for (slot, v) in cell.events.iter().zip(snap.to_array()) {
            slot.store(v, Ordering::Relaxed);
        }
        cell.state.store(1, Ordering::Release);
        Ok(())
    }

    /// The whole life of a forked **observer**: attach the inherited fd,
    /// find the telemetry plane through the aux slot, and watch until
    /// some slot's progress advances between two consistent readings —
    /// the external `usipc-top` story reduced to an exit code. Counters
    /// are cumulative, so any later reading with a smaller value than an
    /// earlier one from the same slot proves a torn read.
    fn observer_body(fd: i32, deadline: Duration) -> Result<(), i32> {
        let arena = Arc::new(ShmArena::attach_memfd(fd).map_err(|_| EXIT_ATTACH_FAILED)?);
        let plane = TelemetryPlane::attach(&arena).ok_or(EXIT_NO_TELEMETRY)?;
        let give_up = Instant::now() + deadline;
        let mut baseline: Vec<Option<TelemetryReading>> = vec![None; plane.n_slots()];
        while Instant::now() < give_up {
            for (i, base) in baseline.iter_mut().enumerate() {
                let Some(r) = plane.read(i) else { continue };
                match base {
                    None => *base = Some(r),
                    Some(b) => {
                        let earlier = b.snapshot.to_array();
                        let later = r.snapshot.to_array();
                        if later.iter().zip(earlier.iter()).any(|(l, e)| l < e)
                            || r.progress < b.progress
                        {
                            return Err(EXIT_TORN);
                        }
                        if r.progress > b.progress && r.published_at > b.published_at {
                            return Ok(());
                        }
                    }
                }
            }
            std::thread::yield_now();
        }
        Err(EXIT_STALE)
    }

    /// The doomed incarnation: a forked server child that serves exactly
    /// `kill_site` echoes, then SIGKILLs itself **inside the handler** —
    /// request dequeued, reply uncommitted, no unwind guard, no
    /// tombstone. Exactly what an external `kill -9` at that protocol
    /// point produces.
    fn doomed_server_body(fd: i32, strategy: WaitStrategy) -> Result<(), i32> {
        let w = Attached::new(fd)?;
        let ch = w.channel();
        let task = w.os.task(0);
        let kill_site = w.root().shape.kill_site;
        let mut served = 0u64;
        w.root().ready.v();
        crate::server::run_resilient_server(
            &ch,
            &task,
            strategy,
            Duration::from_millis(5),
            move |m| {
                if m.opcode == crate::msg::opcode::ECHO {
                    if served == kill_site {
                        crate::proc::raise_sigkill();
                    }
                    served += 1;
                }
                m
            },
        );
        // Reachable only if the kill site exceeds the traffic — the
        // harness rejects such sites up front.
        Ok(())
    }

    /// The half-recoverer of the relay drill: attaches the inherited
    /// segment and dies by its own SIGKILL **during recovery** — either
    /// right after the generation bump (fsck never ran: the wreckage is
    /// still the first server's) or right after the fsck (verdicts
    /// issued, nothing served).
    fn relay_recoverer_body(fd: i32, fsck: bool) -> Result<(), i32> {
        let w = Attached::new(fd)?;
        if fsck {
            let _ = crate::recover::take_over(&w.channel(), &w.os.task(0));
        } else {
            w.arena.bump_generation();
        }
        crate::proc::raise_sigkill()
    }

    /// One cross-process echo run ([`run_proc_echo`]).
    #[derive(Debug, Clone)]
    pub struct ProcEcho {
        /// Wait strategy of the server and every client.
        pub strategy: WaitStrategy,
        /// Number of forked clients.
        pub clients: usize,
        /// Echo round trips per client (before the disconnect).
        pub msgs_per_client: u64,
        /// CPU everyone — the server thread and every forked client —
        /// pins itself to under `SCHED_BATCH`, reproducing the paper's
        /// **uniprocessor** regime on a multicore host. Under that
        /// schedule each side genuinely blocks before its peer runs, so
        /// BSW's accounting is exact (4 semaphore ops per round trip)
        /// instead of an upper bound that pipelining undercuts. `None`:
        /// run free.
        pub pin_cpu: Option<usize>,
        /// Allocate the telemetry plane with every participant
        /// publishing (a sampler thread feeds the server's slot).
        pub telemetry: bool,
        /// Also fork an external **observer** that attaches the segment by
        /// inherited fd — knowing nothing but that fd — and exits 0 only
        /// after reading a consistent, advancing snapshot while the
        /// barrage is live. Implies `telemetry`.
        pub observer: bool,
        /// Channel queue representation (both kinds must cost BSW exactly
        /// 4 semaphore ops per round trip: the queue swap is below the
        /// protocol layer).
        pub queue_kind: QueueKind,
    }

    impl ProcEcho {
        /// The free-running, telemetry-off run on the default queue kind.
        pub fn new(strategy: WaitStrategy, clients: usize, msgs_per_client: u64) -> Self {
            ProcEcho {
                strategy,
                clients,
                msgs_per_client,
                pin_cpu: None,
                telemetry: false,
                observer: false,
                queue_kind: QueueKind::default(),
            }
        }
    }

    /// Results of one cross-process echo run ([`run_proc_echo`]).
    #[derive(Debug, Clone)]
    pub struct ProcEchoResult {
        /// The barrage: go release → last client's own completion (after
        /// its disconnect), both on the segment clock.
        pub elapsed: Duration,
        /// ECHO messages processed.
        pub messages: u64,
        /// Throughput in messages per millisecond.
        pub throughput: f64,
        /// The parent server thread's run summary.
        pub server_run: ServerRun,
        /// Protocol events recorded by the parent's server task.
        pub server_metrics: MetricsSnapshot,
        /// Protocol events summed over every child process (shipped back
        /// through shared-memory cells).
        pub client_metrics: MetricsSnapshot,
        /// Raw per-message round-trip samples in nanoseconds over every
        /// child, in (client, message) order.
        pub client_samples: Vec<u64>,
        /// Each child's exit status (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
        /// Final telemetry readings (slot order: server, then clients),
        /// present when the run carried a telemetry plane.
        pub telemetry: Option<Vec<TelemetryReading>>,
        /// Exit status of the forked external observer, when one ran
        /// (`Exited(0)`: it attached by fd and watched a consistent,
        /// advancing snapshot).
        pub observer_exit: Option<ExitStatus>,
    }

    /// Runs the echo workload with **real forked processes**: the parent
    /// hosts the server thread; each client is a forked child that
    /// attaches the memfd arena by file descriptor and bootstraps from
    /// the published root. The counting semaphores live *inside* the
    /// segment in cross-process futex mode, so the wait strategies run
    /// unmodified across address spaces — the backing-store swap the
    /// paper's user-level design promises. See the module docs for the
    /// fork discipline.
    ///
    /// # Panics
    ///
    /// On any child failing (attach failure, echo corruption, panic,
    /// signal, a participant unable to pin itself) or a wedged process
    /// (watchdog).
    pub fn run_proc_echo(spec: &ProcEcho) -> ProcEchoResult {
        let n = spec.clients;
        let strategy = spec.strategy;
        let pin_cpu = spec.pin_cpu;
        let shape = Shape {
            pin_cpu: pin_cpu.map_or(-1, |c| c as i32),
            ..Shape::new(n, spec.msgs_per_client)
        };
        let telemetry = spec.telemetry || spec.observer;
        let world = World::build(shape, spec.queue_kind, true, telemetry.then_some(0));
        let fd = world.fd;

        let children: Vec<ChildProc> = (0..n as u32)
            .map(|c| fork(move || client_body(fd, c, strategy)))
            .collect();
        let observer = spec
            .observer
            .then(|| fork(move || observer_body(fd, WATCHDOG_JOIN)));

        let server = {
            let (ch, t0) = (world.channel.clone(), world.os.task(0));
            spawn_task("proc-echo server".into(), 0, move || {
                if let Some(cpu) = pin_cpu {
                    crate::proc::pin_to_cpu(cpu).expect("pin server thread");
                    crate::proc::set_sched_batch().expect("batch server thread");
                }
                crate::server::run_echo_server(&ch, &t0, strategy)
            })
        };
        // The parent's server slot is fed by a *sampler* thread reading
        // the server task's counter registry — the echo loop itself is
        // untouched, which is exactly the zero-overhead posture the
        // accounting test verifies. Single-writer discipline holds: only
        // the sampler writes slot 0.
        let stop_sampler = Arc::new(AtomicBool::new(false));
        let sampler = world.plane.clone().map(|p| {
            let (os, ch, stop) = (
                Arc::clone(&world.os),
                world.channel.clone(),
                Arc::clone(&stop_sampler),
            );
            spawn_task("sampler".into(), 0, move || {
                let w = p.writer(0, 0, Role::Server);
                loop {
                    let s = os.metrics().map(|m| m.task_snapshot(0)).unwrap_or_default();
                    w.set_progress(s.requests_served);
                    w.set_queue_depth(ch.receive_queue().queued_len() as u64);
                    w.set_waiters(n as u64);
                    w.set_slots_leaked(s.slots_leaked);
                    w.publish(&s);
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });

        let go_at = world.release(n);
        let server_run = join_one(server);
        // The observer needs live traffic: reap it before stopping the
        // sampler, so the final publishes flow while it waits for its
        // advancing pair.
        let observer_exit = observer.map(|child| join_one(("observer".into(), 0, child)));
        stop_sampler.store(true, Ordering::Release);
        if let Some(h) = sampler {
            join_one(h);
        }
        let exits = reap_all(children, "client");
        if let Some(e) = &observer_exit {
            assert!(
                e.success(),
                "external observer failed: {e:?} (2=attach, 6=no plane, 7=stale, 8=torn)"
            );
        }

        let client_metrics = world.client_metrics();
        let done_at = world
            .cells()
            .iter()
            .map(|cell| cell.done_at.load(Ordering::Relaxed))
            .max()
            .unwrap_or(go_at);
        let elapsed = Duration::from_nanos(done_at.saturating_sub(go_at));
        let client_samples = world
            .arena
            .get_slice(world.root().samples)
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();

        let messages = spec.msgs_per_client * n as u64;
        ProcEchoResult {
            throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
            elapsed,
            messages,
            server_metrics: world.os.metrics().expect("metrics on").task_snapshot(0),
            server_run,
            client_metrics,
            client_samples,
            exits,
            telemetry: world.plane.map(|p| p.readings()),
            observer_exit,
        }
    }

    /// Results of one cross-process kill experiment
    /// ([`run_proc_kill_experiment`]).
    #[derive(Debug)]
    pub struct ProcKillResult {
        /// The resilient server's run summary (`reaped` counts the
        /// victim).
        pub server_run: ServerRun,
        /// Protocol events recorded by the parent's server task
        /// (`peer_deaths_detected` fires when the scan finds the victim).
        pub server_metrics: MetricsSnapshot,
        /// How the victim died (`Signaled(SIGKILL)`).
        pub victim_exit: ExitStatus,
        /// Whether the victim's reply queue ended poisoned.
        pub victim_reply_poisoned: bool,
        /// Echo round trips the victim completed before the kill.
        pub victim_progress: u64,
        /// Exit statuses of the surviving clients (all `Exited(0)`).
        pub survivor_exits: Vec<ExitStatus>,
        /// The flight-recorder postmortem: Perfetto/Chrome JSON of every
        /// task's final events, cut by the server the moment it detected
        /// the death — the victim's records read out of shared memory,
        /// where they survived the SIGKILL.
        pub flight_dump: Option<String>,
        /// Final telemetry readings (server slot + surviving clients).
        pub telemetry: Option<Vec<TelemetryReading>>,
    }

    /// Flight-ring capacity for the kill drill: generous enough to hold
    /// the victim's whole final conversation (~10 events per round trip).
    const KILL_FLIGHT_CAPACITY: usize = 2048;

    /// Echo round trips the victim must complete before the SIGKILL, so
    /// the kill provably lands mid-conversation, not before the first
    /// message.
    const KILL_AFTER_PROGRESS: u64 = 50;

    /// The cross-process failure drill: client `0` is forked with an
    /// endless barrage and **SIGKILLed mid-traffic** — no unwinding, no
    /// `DeathWatch`, exactly what process death looks like. The parent
    /// detects the death through the child's **pidfd**, feeds it into the
    /// failure model via
    /// [`mark_consumer_dead`](crate::QueueRef::mark_consumer_dead), and
    /// the resilient server's next heartbeat scan reaps the victim and
    /// poisons its reply queue while the surviving clients finish their
    /// runs untouched.
    ///
    /// Same fork discipline as [`run_proc_echo`].
    ///
    /// # Panics
    ///
    /// On a survivor failing, the victim dying any way but the SIGKILL,
    /// or a wedged process (watchdog).
    pub fn run_proc_kill_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        heartbeat: Duration,
    ) -> ProcKillResult {
        let shape = Shape {
            n_victims: 1,
            ..Shape::new(n_clients, msgs_per_client)
        };
        let world = World::build(
            shape,
            QueueKind::default(),
            false,
            Some(KILL_FLIGHT_CAPACITY),
        );
        let fd = world.fd;
        let mut children: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| fork(move || client_body(fd, c, strategy)))
            .collect();

        let server = {
            let (ch, t0, plane) = (world.channel.clone(), world.os.task(0), world.plane.clone());
            spawn_task("proc-kill server".into(), 0, move || {
                let writer = plane.as_ref().map(|p| p.writer(0, 0, Role::Server));
                let flight = plane.as_ref().and_then(|p| p.flight());
                let mut names = vec![(0, "server".to_string())];
                names.extend((0..n_clients as u32).map(|c| (1 + c, format!("client{c}"))));
                names.push((1 + n_clients as u32, "monitor".to_string()));
                let obs = crate::server::ServerObservability {
                    telemetry: writer.as_ref(),
                    flight: flight.as_ref(),
                    task_names: names,
                };
                crate::server::run_resilient_server_observed(
                    &ch,
                    &t0,
                    strategy,
                    heartbeat,
                    obs,
                    |m| m,
                )
            })
        };
        world.release(n_clients);

        // Let the victim make real progress, then kill it cold.
        let cell0 = &world.cells()[0];
        wait_until(
            "victim never made progress",
            Duration::from_millis(1),
            || cell0.progress.load(Ordering::Relaxed) >= KILL_AFTER_PROGRESS,
        );
        let victim = children.remove(0);
        victim.kill();
        // pidfd-based detection: the descriptor polls readable at
        // process exit — race-free, no reaping required yet.
        assert!(
            victim.dead_within(WATCHDOG_JOIN),
            "pidfd never signalled the victim's death"
        );
        let victim_progress = cell0.progress.load(Ordering::Relaxed);
        // Feed the death into the failure model: flip the victim's
        // liveness word so the server's next heartbeat scan reaps it.
        let monitor = world.os.task(1 + n_clients as u32);
        world.channel.reply_queue(0).mark_consumer_dead(&monitor);

        let (server_run, flight_dump) = join_one(server);
        let victim_exit = victim.wait().expect("reap victim");
        assert_eq!(
            victim_exit,
            ExitStatus::Signaled(9),
            "victim should die by SIGKILL"
        );
        let survivor_exits = reap_all(children, "survivor");

        ProcKillResult {
            server_metrics: world.os.metrics().expect("metrics on").task_snapshot(0),
            server_run,
            victim_exit,
            victim_reply_poisoned: world.channel.reply_queue(0).is_poisoned(),
            victim_progress,
            survivor_exits,
            flight_dump,
            telemetry: world.plane.map(|p| p.readings()),
        }
    }

    /// Results of one generational-takeover drill
    /// ([`run_proc_takeover_experiment`]).
    #[derive(Debug)]
    pub struct ProcTakeoverResult {
        /// The kill site the doomed incarnation died at.
        pub kill_site: u64,
        /// How the doomed server died (`Signaled(SIGKILL)`).
        pub server_exit: ExitStatus,
        /// The successor's takeover record: generations and the
        /// [`FsckReport`](crate::FsckReport) with its conservation ledger.
        pub takeover: crate::recover::Takeover,
        /// The successor's serving run (it finishes the whole barrage).
        pub server_run: ServerRun,
        /// Death detection (pidfd readable) → fsck complete, including
        /// the quiescence wait — the end-to-end recovery latency.
        pub recovery: Duration,
        /// Per-client count of requests re-issued after a DROPPED notice
        /// (the drill kills mid-handler, so the total is exactly 1).
        pub drop_retries: Vec<u64>,
        /// Verdict of a fallible call issued on a handle stamped under
        /// the dead generation, raced against the fsck on purpose: must
        /// be `Err(StaleGeneration)`, never a hang.
        pub stale_probe: Result<crate::Message, crate::IpcError>,
        /// Each client's exit status (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
        /// ECHO messages completed across the run (both incarnations).
        pub messages: u64,
        /// Protocol events summed over every client process.
        pub client_metrics: MetricsSnapshot,
        /// The late prober's own events (pinned accounting leg only):
        /// entirely post-takeover, entirely lockstep.
        pub prober_metrics: Option<MetricsSnapshot>,
        /// The successor task's semaphore ops inside the prober window
        /// (pinned accounting leg only).
        pub successor_window_sem_ops: Option<u64>,
    }

    /// The generational-takeover drill: forked clients barrage a forked
    /// server over a memfd segment; the server SIGKILLs itself
    /// mid-handler at `kill_site`; the parent detects the death by pidfd,
    /// waits for the surviving clients to quiesce (parked in their reply
    /// waits — the fsck precondition), then runs
    /// [`take_over`](crate::take_over) and serves the rest of the barrage
    /// as the new incarnation. Every client completes without ever
    /// observing the crash, except the one whose in-hand request was
    /// dropped — it gets a DROPPED notice and re-issues.
    ///
    /// With `pin_cpu`, this is the **pinned accounting leg**: everyone on
    /// that CPU under `SCHED_BATCH`, with the last client held back as a
    /// **late prober** that starts only after the takeover completed and
    /// the others drained — so its whole conversation is lockstep BSW
    /// against the successor, and the paper's 4-semaphore-ops-per-round-
    /// trip accounting can be pinned *post-takeover*. A long heartbeat
    /// keeps liveness-scan timeouts out of the measured window.
    ///
    /// Same fork discipline as [`run_proc_echo`].
    ///
    /// # Panics
    ///
    /// On a client failing, the doomed server dying any way but its own
    /// SIGKILL, or a wedged process (watchdog).
    pub fn run_proc_takeover_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        kill_site: u64,
        queue_kind: QueueKind,
        pin_cpu: Option<usize>,
    ) -> ProcTakeoverResult {
        let prober = pin_cpu.is_some();
        let normal = n_clients - usize::from(prober);
        assert!(
            normal >= 1 && kill_site < normal as u64 * msgs_per_client,
            "the doomed server must die mid-barrage (site {kill_site})"
        );
        let heartbeat = if prober {
            Duration::from_secs(1)
        } else {
            Duration::from_millis(5)
        };
        let shape = Shape {
            kill_site,
            pin_cpu: pin_cpu.map_or(-1, |c| c as i32),
            prober: u32::from(prober),
            ..Shape::new(n_clients, msgs_per_client)
        };
        let world = World::build(shape, queue_kind, false, None);
        let fd = world.fd;
        let clients: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| fork(move || client_body(fd, c, strategy)))
            .collect();
        let doomed = fork(move || doomed_server_body(fd, strategy));
        world.release(n_clients + 1);

        // The doomed incarnation reaches its kill site and dies; the
        // pidfd is the successor's death signal.
        assert!(
            doomed.dead_within(WATCHDOG_JOIN),
            "doomed server never reached kill site {kill_site}"
        );
        let t_detect = Instant::now();
        let server_exit = doomed.wait().expect("reap doomed server");
        // The prober (if any) is parked on its gate.
        world.quiesce(0..normal as u32, "after the kill");

        // A handle stamped under the dead generation, for the staleness
        // probe below.
        let stale_ch = Channel::from_root(Arc::clone(&world.arena), world.root().channel);

        // The successor: bump + fsck + re-arm + serve, on its own thread
        // so the parent can probe staleness and orchestrate the pinned
        // accounting window.
        let successor = {
            let (ch, os0) = (world.channel.clone(), world.os.task(0));
            spawn_task("takeover successor server".into(), 0, move || {
                if let Some(cpu) = pin_cpu {
                    crate::proc::pin_to_cpu(cpu).expect("pin successor");
                    crate::proc::set_sched_batch().expect("batch successor");
                }
                let takeover = crate::recover::take_over(&ch, &os0);
                let fsck_done = Instant::now();
                let _watch = crate::fault::ServerDeathWatch::arm(&ch, &os0);
                let run =
                    crate::server::run_resilient_server(&ch, &os0, strategy, heartbeat, |m| m);
                (takeover, fsck_done, run)
            })
        };

        // Staleness probe, deliberately racing the fsck: the generation
        // bump alone must fence this handle — the call fails fast with a
        // local stamp check before touching any queue.
        wait_until(
            "the successor never bumped the generation",
            Duration::ZERO,
            || world.arena.generation() >= 2,
        );
        let probe_task = world.os.task(1 + n_clients as u32);
        let stale_probe = stale_ch
            .client(&probe_task, 0, strategy)
            .call_deadline(crate::Message::echo(0, 0.0), Duration::from_millis(250));

        // Pinned accounting leg: wait out the normal clients, open the
        // metrics window on the successor task, release the prober.
        let cells = world.cells();
        let metrics = world.os.metrics().expect("metrics on");
        let mut window_start = None;
        if prober {
            wait_until(
                "a client never finished against the successor",
                Duration::from_millis(1),
                || cells[..normal].iter().all(ProcCell::finalized),
            );
            window_start = Some(metrics.task_snapshot(0));
            world.root().prober_go.v();
        }

        let (takeover, fsck_done, server_run) = join_one(successor);
        let successor_window_sem_ops = window_start.map(|s0| {
            let s1 = metrics.task_snapshot(0);
            (s1.sem_p - s0.sem_p) + (s1.sem_v - s0.sem_v)
        });
        let exits = reap_all(clients, "takeover client");

        ProcTakeoverResult {
            kill_site,
            server_exit,
            recovery: fsck_done.duration_since(t_detect),
            takeover,
            server_run,
            drop_retries: world.drop_retries(),
            stale_probe,
            exits,
            messages: msgs_per_client * n_clients as u64,
            client_metrics: world.client_metrics(),
            prober_metrics: prober.then(|| cells[normal].snapshot()),
            successor_window_sem_ops,
        }
    }

    /// Results of one fault storm ([`run_proc_storm_experiment`]).
    #[derive(Debug)]
    pub struct ProcStormResult {
        /// How many clients were SIGKILLed mid-barrage.
        pub n_victims: usize,
        /// Victim exit statuses (all `Signaled(SIGKILL)`).
        pub victim_exits: Vec<ExitStatus>,
        /// Survivor exit statuses (all `Exited(0)` on success).
        pub survivor_exits: Vec<ExitStatus>,
        /// The doomed server's death, when the storm included one
        /// (`kill_server_at` was set).
        pub server_exit: Option<ExitStatus>,
        /// The takeover record, when the storm killed the server.
        pub takeover: Option<crate::recover::Takeover>,
        /// Death detection → fsck complete, when the storm killed the
        /// server.
        pub recovery: Option<Duration>,
        /// The (final) server's run: `reaped` counts every storm victim.
        pub server_run: ServerRun,
        /// Whether each victim's reply queue ended poisoned — the
        /// cascade's visible residue.
        pub victim_poisoned: Vec<bool>,
        /// Per-client DROPPED-retry counts (only a surviving client whose
        /// in-hand request the takeover dropped ever retries).
        pub drop_retries: Vec<u64>,
        /// Echo round trips the survivors completed (their full barrage).
        pub survivor_messages: u64,
    }

    /// Echo round trips a storm victim must complete before its SIGKILL
    /// when the server is still alive, so the kill provably lands
    /// mid-conversation.
    const STORM_KILL_PROGRESS: u64 = 25;

    /// The fault storm: `n_victims` of `n_clients` forked clients are
    /// SIGKILLed mid-barrage — and, when `kill_server_at` is set, the
    /// forked server *also* SIGKILLs itself mid-handler at that site, so
    /// mass client death and server death land in the same run.
    ///
    /// Without a server kill this is the poison-cascade drill: the
    /// parent's resilient server reaps every victim on its heartbeat
    /// scan (their deaths detected by pidfd and fed through
    /// [`mark_consumer_dead`](crate::QueueRef::mark_consumer_dead)),
    /// poisons their reply queues, and finishes the survivors untouched.
    ///
    /// With a server kill, the parent waits for the doomed incarnation
    /// to die, quiesces, runs [`take_over`](crate::take_over) — and then
    /// **re-marks the storm victims dead**: the fsck's fault-state reset
    /// revives every consumer-liveness word, which is correct for clients
    /// that merely lost their server but wrong for actual corpses; the
    /// successor re-feeds the pidfd verdicts before serving so its first
    /// heartbeat scan re-reaps them.
    ///
    /// Same fork discipline as [`run_proc_echo`].
    pub fn run_proc_storm_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        n_victims: usize,
        msgs_per_client: u64,
        kill_server_at: Option<u64>,
        heartbeat: Duration,
    ) -> ProcStormResult {
        assert!(n_victims >= 1 && n_victims < n_clients);
        let survivors = n_clients - n_victims;
        if let Some(site) = kill_server_at {
            assert!(
                site < survivors as u64 * msgs_per_client,
                "the doomed server must die before the survivors drain (site {site})"
            );
        }
        let shape = Shape {
            n_victims: n_victims as u32,
            kill_site: kill_server_at.unwrap_or(0),
            ..Shape::new(n_clients, msgs_per_client)
        };
        let world = World::build(shape, QueueKind::default(), false, None);
        let fd = world.fd;
        let mut children: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| fork(move || client_body(fd, c, strategy)))
            .collect();
        let doomed = kill_server_at.map(|_| fork(move || doomed_server_body(fd, strategy)));
        let has_doomed = doomed.is_some();

        // Plain storm: the parent itself is the (resilient) server; it
        // must be serving before the clients start.
        let mut server = (!has_doomed).then(|| world.serve("storm server", strategy, heartbeat));
        world.release(n_clients + usize::from(has_doomed));

        let mut server_exit = None;
        if let Some(d) = doomed {
            // Server-death-during-storm ordering: the doomed incarnation
            // dies first, every client (victims included — they are
            // endless) parks against the dead server, and only then do
            // the victims get their SIGKILL: they die *in flight*, parked
            // in their reply waits, which is the state the fsck must then
            // issue verdicts into.
            assert!(
                d.dead_within(WATCHDOG_JOIN),
                "doomed server never reached its kill site"
            );
            server_exit = Some(d.wait().expect("reap doomed server"));
            world.quiesce(0..n_clients as u32, "after the server kill");
        } else {
            // Live-server storm: let every victim make real progress
            // first, so the kills land mid-conversation.
            let cells = world.cells();
            wait_until(
                "a victim never made progress",
                Duration::from_millis(1),
                || {
                    cells[..n_victims]
                        .iter()
                        .all(|cell| cell.progress.load(Ordering::Relaxed) >= STORM_KILL_PROGRESS)
                },
            );
        }

        // The mass kill, and race-free detection through each pidfd.
        let victims: Vec<ChildProc> = children.drain(..n_victims).collect();
        for v in &victims {
            v.kill();
        }
        for (i, v) in victims.iter().enumerate() {
            assert!(
                v.dead_within(WATCHDOG_JOIN),
                "pidfd never signalled victim {i}'s death"
            );
        }

        let mut takeover = None;
        let mut recovery = None;
        if has_doomed {
            let t_detect = Instant::now();
            takeover = Some(crate::recover::take_over(&world.channel, &world.os.task(0)));
            recovery = Some(t_detect.elapsed());
        }
        // Feed the corpses into the failure model — *after* any fsck,
        // whose fault-state reset revived their liveness words.
        let monitor = world.os.task(1 + n_clients as u32);
        for v in 0..n_victims as u32 {
            world.channel.reply_queue(v).mark_consumer_dead(&monitor);
        }
        if has_doomed {
            server = Some(world.serve("storm successor server", strategy, heartbeat));
        }

        let server_run = join_one(server.expect("a server ran"));
        let victim_exits: Vec<ExitStatus> = victims
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let e = v.wait().expect("reap victim");
                assert_eq!(e, ExitStatus::Signaled(9), "victim {i} died oddly: {e:?}");
                e
            })
            .collect();
        let survivor_exits = reap_all(children, "storm survivor");

        ProcStormResult {
            n_victims,
            victim_exits,
            survivor_exits,
            server_exit,
            takeover,
            recovery,
            server_run,
            victim_poisoned: (0..n_victims as u32)
                .map(|v| world.channel.reply_queue(v).is_poisoned())
                .collect(),
            drop_retries: world.drop_retries(),
            survivor_messages: survivors as u64 * msgs_per_client,
        }
    }

    /// Results of one relay-takeover drill
    /// ([`run_proc_relay_takeover_experiment`]).
    #[derive(Debug)]
    pub struct ProcRelayResult {
        /// The first incarnation's death (`Signaled(SIGKILL)`).
        pub server_exit: ExitStatus,
        /// The half-recoverer's death (`Signaled(SIGKILL)`).
        pub recoverer_exit: ExitStatus,
        /// Whether the half-recoverer completed its fsck before dying.
        pub fsck_before_death: bool,
        /// The *final* takeover record (the one that served).
        pub takeover: crate::recover::Takeover,
        /// The arena generation after the final takeover (3: created at
        /// 1, half-recovery bumped to 2, final takeover to 3).
        pub final_generation: u32,
        /// The final incarnation's serving run.
        pub server_run: ServerRun,
        /// Half-recoverer death detection → final fsck complete.
        pub recovery: Duration,
        /// Per-client DROPPED-retry counts (≤ 1 per recovery wave).
        pub drop_retries: Vec<u64>,
        /// Client exit statuses (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
    }

    /// The kill-during-recovery drill: the first server dies at its kill
    /// site, a forked **half-recoverer** starts the takeover and is
    /// itself SIGKILLed mid-recovery (after the generation bump, with
    /// the fsck either done or never run), and the parent performs the
    /// *third* takeover over a segment the previous recovery already
    /// half-mutated — the fsck idempotence property, exercised in anger.
    /// Every client still finishes its full barrage.
    ///
    /// Same fork discipline as [`run_proc_echo`]; the half-recoverer is
    /// forked only after the first server's death, at which point the
    /// parent has no threads yet.
    pub fn run_proc_relay_takeover_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        kill_site: u64,
        fsck_before_death: bool,
    ) -> ProcRelayResult {
        assert!(n_clients >= 1 && kill_site < n_clients as u64 * msgs_per_client);
        let shape = Shape {
            kill_site,
            ..Shape::new(n_clients, msgs_per_client)
        };
        let world = World::build(shape, QueueKind::default(), false, None);
        let fd = world.fd;
        let clients: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| fork(move || client_body(fd, c, strategy)))
            .collect();
        let doomed = fork(move || doomed_server_body(fd, strategy));
        world.release(n_clients + 1);
        assert!(
            doomed.dead_within(WATCHDOG_JOIN),
            "first server never reached kill site {kill_site}"
        );
        let server_exit = doomed.wait().expect("reap first server");
        world.quiesce(0..n_clients as u32, "after the first kill");

        // The half-recoverer: forked (the parent is still threadless),
        // dies by its own hand mid-recovery.
        let recoverer = fork(move || relay_recoverer_body(fd, fsck_before_death));
        assert!(
            recoverer.dead_within(WATCHDOG_JOIN),
            "half-recoverer never died"
        );
        let t_detect = Instant::now();
        let recoverer_exit = recoverer.wait().expect("reap recoverer");
        assert_eq!(
            recoverer_exit,
            ExitStatus::Signaled(9),
            "the half-recoverer must die by its own SIGKILL"
        );
        // If it fscked, clients it dropped are awake and re-enqueueing
        // right now; wait for them to park again.
        world.quiesce(0..n_clients as u32, "after the half-recovery");

        let takeover = crate::recover::take_over(&world.channel, &world.os.task(0));
        let recovery = t_detect.elapsed();
        let final_generation = world.arena.generation();
        let server_run =
            join_one(world.serve("relay successor server", strategy, Duration::from_millis(5)));
        let exits = reap_all(clients, "relay client");

        ProcRelayResult {
            server_exit,
            recoverer_exit,
            fsck_before_death,
            takeover,
            final_generation,
            server_run,
            recovery,
            drop_retries: world.drop_retries(),
            exits,
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use proc_harness::{
    run_proc_echo, run_proc_kill_experiment, run_proc_relay_takeover_experiment,
    run_proc_storm_experiment, run_proc_takeover_experiment, ProcEcho, ProcEchoResult,
    ProcKillResult, ProcRelayResult, ProcStormResult, ProcTakeoverResult,
};
