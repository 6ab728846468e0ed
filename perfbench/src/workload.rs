//! The three workloads, their seeded inputs, and the measured run.
//!
//! Every workload runs in this one process on the library's public API:
//! `Channel`/`ClientEndpoint` with `run_server` for the ping-pongs, and
//! `ShardedServer`/`MuxClient` with a `TelemetryPlane` slot for the fan-in.
//! Each uses `NativeConfig::for_clients` defaults (metrics on, tracing
//! off, default queue kind).

use crate::host::{now_ns, process_cpu_ns, thread_cpu_ns, tighten_timer_slack};
use crate::probe::{Kind, Probe, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Duration;
use usipc::telemetry::Role;
use usipc::{
    opcode, run_server, Channel, ChannelConfig, Message, MetricsSnapshot, NativeConfig, NativeOs,
    ShardedConfig, ShardedServer, TelemetryPlane, WaitStrategy,
};
use usipc_shm::ShmArena;

/// Poll budget of the spinning ping-pong (BSLS `MAX_SPIN`).
pub const MAX_SPIN: u32 = 50;
/// Client threads (one `MuxClient` connection each) of the fan-in.
pub const FANIN_CLIENTS: u32 = 2;
/// Aggregate offered rate of the fan-in, calls per second. The one rate
/// probed on a 2-vCPU host where p50 and p90 repeat from run to run.
pub const FANIN_RATE: f64 = 20_000.0;
/// Client 0 of the fan-in reads the telemetry plane after every this
/// many calls.
pub const TELEMETRY_EVERY: u64 = 16;
/// Upper bound of the fan-in handler's seeded service time.
pub const MAX_SERVICE_NS: u64 = 2_000;
/// A call that completes this long after it was due counts as failed.
pub const CALL_DEADLINE_NS: u64 = 250_000_000;
/// How long before a send's due time the generator stops sleeping.
pub const WAKE_EARLY_NS: u64 = 50_000;
/// Unmeasured calls per client before the window opens.
const WARMUP_CALLS: u64 = 500;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1 client ↔ 1 `run_server` echo thread under BSLS: every wait is
    /// satisfied by polling.
    PingpongSpin,
    /// The same closed loop under BSW: every wait sleeps on a semaphore.
    PingpongBlock,
    /// 2 paced clients into one WaitSet shard worker with handler work
    /// and a telemetry reader.
    FaninPaced,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PingpongSpin,
        Workload::PingpongBlock,
        Workload::FaninPaced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSpin => "pingpong_spin",
            Workload::PingpongBlock => "pingpong_block",
            Workload::FaninPaced => "fanin_paced",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether each call is sent when the last one returns (closed loop)
    /// rather than on a schedule (open loop).
    pub fn closed_loop(self) -> bool {
        !matches!(self, Workload::FaninPaced)
    }
}

/// SplitMix64: the whole input stream derives from the seed through it.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded inputs of one run: payloads, service times and send times.
/// The program under test sees only the messages built from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    seed: u64,
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        Schedule { seed }
    }

    /// Id of client `c`'s `k`-th call, carried in the message's `aux`.
    pub fn req_id(c: u32, k: u64) -> u64 {
        ((c as u64) << 40) | k
    }

    /// The payload of request `req`: a finite double in (-1e6, 1e6).
    pub fn payload(&self, req: u64) -> f64 {
        let bits = splitmix(self.seed ^ splitmix(req));
        (bits >> 11) as f64 / (1u64 << 53) as f64 * 2e6 - 1e6
    }

    /// Handler service time of request `req`, in `0..=MAX_SERVICE_NS`.
    pub fn service_ns(&self, req: u64) -> u64 {
        splitmix(!self.seed ^ splitmix(req)) % (MAX_SERVICE_NS + 1)
    }

    /// Due time of fan-in client `c`'s `k`-th call, from the origin: the
    /// clients' sends interleave evenly at the aggregate rate, so client
    /// `c` starts `c` inter-arrival gaps after client 0.
    pub fn due_ns(c: u32, k: u64) -> u64 {
        let gap = 1e9 / FANIN_RATE;
        ((c as f64 + k as f64 * FANIN_CLIENTS as f64) * gap) as u64
    }

    /// The request message of call `req`.
    pub fn request(&self, req: u64) -> Message {
        Message {
            opcode: opcode::ECHO,
            channel: 0,
            value: self.payload(req),
            aux: req,
        }
    }
}

/// Whether `reply` is the echo of `request`.
fn echoes(request: &Message, reply: &Message) -> bool {
    reply.opcode == request.opcode
        && reply.aux == request.aux
        && reply.value.to_bits() == request.value.to_bits()
}

/// Spins until `nanos` have passed (the handler's seeded service time).
/// Reads the clock every iteration: `NativeTask::compute` batches 64 spin
/// hints between reads, which is coarser than the 0–2 µs asked for.
fn spin_for(nanos: u64) {
    let end = now_ns() + nanos;
    while now_ns() < end {
        std::hint::spin_loop();
    }
}

/// Per-client progress, readable by the watchdog while the client runs.
#[derive(Default)]
struct Progress {
    started: AtomicU64,
    completed: AtomicU64,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    lat_ns: Vec<u64>,
    gen_late_ns: Vec<u64>,
    wrong: u64,
    over_deadline: u64,
    window: (u64, u64),
    cpu_end: u64,
    pacing_cpu_ns: u64,
    counters_end: MetricsSnapshot,
    tel_read_ns: Vec<u64>,
    tel_fails: u64,
    spans: Vec<Span>,
}

/// Everything one measured run produced.
#[derive(Default)]
pub struct Run {
    /// Calls completed inside the measured window.
    pub calls: u64,
    /// Calls whose reply was not the echo of their request.
    pub wrong: u64,
    /// Calls that completed later than [`CALL_DEADLINE_NS`] after due.
    pub over_deadline: u64,
    /// Per-call latency, send to reply. In the open loop the wait before
    /// the send, behind a late reply or the generator, is `gen_late_ns`.
    pub lat_ns: Vec<u64>,
    /// Open loop only: how late each send left after its due time.
    pub gen_late_ns: Vec<u64>,
    /// Measured window on the [`now_ns`] axis.
    pub window: (u64, u64),
    /// Process CPU time over the window, generator pacing excluded.
    pub cpu_ns: u64,
    /// Protocol event counters of every task over the window.
    pub counters: MetricsSnapshot,
    /// Open loop only: calls the schedule put inside the window.
    pub scheduled: u64,
    /// Telemetry reads by fan-in client 0: durations and failures.
    pub tel_read_ns: Vec<u64>,
    pub tel_fails: u64,
    /// Traced runs only: (thread name, is server, spans).
    pub threads: Vec<(String, bool, Vec<Span>)>,
}

/// A run that did not finish: which tasks hung and how many calls they
/// left unfinished.
#[derive(Debug)]
pub struct Wedged {
    pub tasks: Vec<String>,
    pub attempted: u64,
    pub unfinished: u64,
}

/// Waits for every thread, giving up at `deadline` (on the [`now_ns`]
/// axis): a wedged task is named, never waited on forever.
pub fn join_all<T>(
    handles: Vec<(String, JoinHandle<T>)>,
    deadline: u64,
) -> Result<Vec<T>, Vec<String>> {
    while now_ns() < deadline && !handles.iter().all(|(_, h)| h.is_finished()) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stuck: Vec<String> = handles
        .iter()
        .filter(|(_, h)| !h.is_finished())
        .map(|(n, _)| n.clone())
        .collect();
    if !stuck.is_empty() {
        return Err(stuck);
    }
    let mut out = Vec::with_capacity(handles.len());
    let mut panicked = Vec::new();
    for (name, h) in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(_) => panicked.push(format!("{name} (panicked)")),
        }
    }
    if panicked.is_empty() {
        Ok(out)
    } else {
        Err(panicked)
    }
}

fn wedged(tasks: Vec<String>, progress: &[Arc<Progress>], scheduled: u64) -> Wedged {
    let started: u64 = progress
        .iter()
        .map(|p| p.started.load(Ordering::SeqCst))
        .sum();
    let completed: u64 = progress
        .iter()
        .map(|p| p.completed.load(Ordering::SeqCst))
        .sum();
    let attempted = started.max(scheduled);
    Wedged {
        tasks,
        attempted,
        unfinished: attempted - completed,
    }
}

/// Grace beyond the planned run length before a task counts as wedged.
const WEDGE_GRACE_NS: u64 = 20_000_000_000;

fn aggregate(os: &NativeOs) -> MetricsSnapshot {
    os.metrics()
        .expect("for_clients enables metrics")
        .aggregate(|_| true)
}

/// One closed-loop ping-pong run of `measure_ns` under `strategy`.
pub fn pingpong<P: Probe + 'static>(
    strategy: WaitStrategy,
    sched: Schedule,
    measure_ns: u64,
) -> Result<Run, Wedged> {
    let nos = NativeOs::new(NativeConfig::for_clients(1));
    let ch = Channel::create(&ChannelConfig::new(1)).expect("arena sized from its config");
    let progress = Arc::new(Progress::default());

    let server = {
        let (nos, ch) = (Arc::clone(&nos), ch.clone());
        std::thread::spawn(move || {
            let os = P::wrap(nos.task(0));
            run_server(&ch, &os, strategy, |m| {
                if P::TRACED {
                    let t = now_ns();
                    os.span(Kind::Handler, m.aux, t, now_ns());
                }
                m
            });
            os.into_spans()
        })
    };
    let client = {
        let (nos, progress) = (Arc::clone(&nos), Arc::clone(&progress));
        std::thread::spawn(move || {
            let os = P::wrap(nos.task(1));
            let ep = ch.client(&os, 0, strategy);
            let mut out = ClientOut::default();
            for k in 0..WARMUP_CALLS {
                let m = sched.request(Schedule::req_id(1, k));
                out.wrong += u64::from(!echoes(&m, &ep.call(m)));
            }
            let counters_start = aggregate(&nos);
            let cpu_start = process_cpu_ns();
            let w0 = now_ns();
            let end = w0 + measure_ns;
            let mut t1 = w0;
            let mut k = 0;
            while t1 < end {
                let m = sched.request(Schedule::req_id(0, k));
                progress.started.fetch_add(1, Ordering::Relaxed);
                os.begin_call(m.aux);
                let t0 = now_ns();
                let reply = ep.call(m);
                t1 = now_ns();
                os.end_call(t0, t1);
                progress.completed.fetch_add(1, Ordering::Relaxed);
                out.wrong += u64::from(!echoes(&m, &reply));
                out.over_deadline += u64::from(t1 - t0 > CALL_DEADLINE_NS);
                out.lat_ns.push(t1 - t0);
                k += 1;
            }
            out.window = (w0, t1);
            out.cpu_end = process_cpu_ns() - cpu_start;
            out.counters_end = aggregate(&nos).diff(&counters_start);
            ep.disconnect();
            out.spans = os.into_spans();
            out
        })
    };
    let deadline = now_ns() + measure_ns + WEDGE_GRACE_NS;
    let mut client_out = match join_all(vec![("client0".to_string(), client)], deadline) {
        Ok(mut v) => v.pop().expect("one client"),
        Err(mut tasks) => {
            if !server.is_finished() {
                tasks.push("server".into());
            }
            return Err(wedged(tasks, &[progress], 0));
        }
    };
    let server_spans = match join_all(vec![("server".to_string(), server)], deadline) {
        Ok(mut v) => v.pop().expect("one server"),
        Err(tasks) => return Err(wedged(tasks, &[progress], 0)),
    };
    Ok(Run {
        calls: client_out.lat_ns.len() as u64,
        wrong: client_out.wrong,
        over_deadline: client_out.over_deadline,
        lat_ns: std::mem::take(&mut client_out.lat_ns),
        window: client_out.window,
        cpu_ns: client_out.cpu_end,
        counters: client_out.counters_end,
        threads: if P::TRACED {
            vec![
                ("client0".into(), false, client_out.spans),
                ("server".into(), true, server_spans),
            ]
        } else {
            Vec::new()
        },
        ..Run::default()
    })
}

/// Sleeps, then yields, until `due`. The sleep ends [`WAKE_EARLY_NS`]
/// before the due time, because a sleep on a VM can overrun by tens of
/// microseconds; the rest is spent in `sched_yield`, so a generator thread
/// that is waiting to send gives its CPU to the server whenever the server
/// is runnable.
fn pace_until(due: u64) {
    let now = now_ns();
    if due > now + WAKE_EARLY_NS {
        std::thread::sleep(Duration::from_nanos(due - WAKE_EARLY_NS - now));
    }
    while now_ns() < due {
        std::thread::yield_now();
    }
}

/// The fan-in topology: a 1-shard server for [`FANIN_CLIENTS`] clients, the
/// backend sized for it, and a one-slot telemetry plane the worker
/// publishes into.
struct Fanin {
    srv: Arc<ShardedServer>,
    nos: Arc<NativeOs>,
    plane: TelemetryPlane,
}

impl Fanin {
    fn create() -> Fanin {
        let srv = Arc::new(
            ShardedServer::create(ShardedConfig::new(FANIN_CLIENTS as usize, 1))
                .expect("arena sized from its config"),
        );
        let mut cfg = NativeConfig::for_clients(FANIN_CLIENTS as usize);
        cfg.n_sems = srv.config().n_sems();
        let nos = NativeOs::new(cfg);
        let arena = Arc::new(
            ShmArena::new(TelemetryPlane::bytes_needed(1, 0, 0)).expect("small telemetry arena"),
        );
        let plane = TelemetryPlane::create_in(&arena, 1, 0, 0).expect("arena sized for the plane");
        Fanin { srv, nos, plane }
    }

    /// Spawns the shard worker: spins each request's seeded service time,
    /// then echoes it.
    fn spawn_worker<P: Probe + 'static>(&self, sched: Schedule) -> JoinHandle<Vec<Span>> {
        let (srv, nos, plane) = (
            Arc::clone(&self.srv),
            Arc::clone(&self.nos),
            self.plane.clone(),
        );
        std::thread::spawn(move || {
            let os = P::wrap(nos.task(0));
            let writer = plane.writer(0, 0, Role::Shard);
            srv.run_worker_observed(&os, 0, Some(&writer), |m| {
                let t = now_ns();
                spin_for(sched.service_ns(m.aux));
                if P::TRACED {
                    os.span(Kind::Handler, m.aux, t, now_ns());
                }
                m
            });
            os.into_spans()
        })
    }
}

/// One open-loop fan-in run whose schedule spans `measure_ns`.
pub fn fanin<P: Probe + 'static>(sched: Schedule, measure_ns: u64) -> Result<Run, Wedged> {
    let world = Fanin::create();
    let worker = world.spawn_worker::<P>(sched);
    let per_client = (measure_ns as f64 * FANIN_RATE / 1e9 / FANIN_CLIENTS as f64) as u64;
    let scheduled = per_client * FANIN_CLIENTS as u64;
    let ready = Arc::new(AtomicU64::new(0));
    let finish = Arc::new(Barrier::new(FANIN_CLIENTS as usize));
    let origin = Arc::new(AtomicU64::new(0));
    let progress: Vec<Arc<Progress>> = (0..FANIN_CLIENTS).map(|_| Arc::default()).collect();

    let clients: Vec<(String, JoinHandle<ClientOut>)> = (0..FANIN_CLIENTS)
        .map(|c| {
            let (srv, nos, plane) = (
                Arc::clone(&world.srv),
                Arc::clone(&world.nos),
                world.plane.clone(),
            );
            let (ready, finish, origin) =
                (Arc::clone(&ready), Arc::clone(&finish), Arc::clone(&origin));
            let progress = Arc::clone(&progress[c as usize]);
            let h = std::thread::spawn(move || {
                tighten_timer_slack();
                let os = P::wrap(nos.task(1 + c));
                let mc = srv.client(&os, c);
                let mut out = ClientOut::default();
                for k in 0..WARMUP_CALLS {
                    let m = sched.request(Schedule::req_id(c + FANIN_CLIENTS, k));
                    out.wrong += u64::from(!echoes(&m, &mc.call(m)));
                }
                ready.fetch_add(1, Ordering::SeqCst);
                let t_origin = loop {
                    match origin.load(Ordering::SeqCst) {
                        0 => std::thread::yield_now(),
                        t => break t,
                    }
                };
                let mut t1 = t_origin;
                for k in 0..per_client {
                    let due = t_origin + Schedule::due_ns(c, k);
                    let cpu_a = thread_cpu_ns();
                    pace_until(due);
                    out.pacing_cpu_ns += thread_cpu_ns() - cpu_a;
                    let m = sched.request(Schedule::req_id(c, k));
                    progress.started.fetch_add(1, Ordering::Relaxed);
                    os.begin_call(m.aux);
                    let send = now_ns();
                    let reply = mc.call(m);
                    t1 = now_ns();
                    os.end_call(send, t1);
                    progress.completed.fetch_add(1, Ordering::Relaxed);
                    out.wrong += u64::from(!echoes(&m, &reply));
                    out.over_deadline += u64::from(t1 - due > CALL_DEADLINE_NS);
                    out.lat_ns.push(t1 - send);
                    out.gen_late_ns.push(send - due);
                    if c == 0 && (k + 1) % TELEMETRY_EVERY == 0 {
                        let r0 = now_ns();
                        let reading = plane.read(0);
                        let r1 = now_ns();
                        os.span(Kind::TelemetryRead, m.aux, r0, r1);
                        out.tel_read_ns.push(r1 - r0);
                        out.tel_fails += u64::from(reading.is_none());
                    }
                }
                out.window = (t_origin, t1);
                out.cpu_end = process_cpu_ns();
                out.counters_end = aggregate(&nos);
                // Nobody disconnects before both windows closed, so the
                // last client's counters hold no shutdown traffic.
                finish.wait();
                mc.disconnect();
                out.spans = os.into_spans();
                out
            });
            (format!("client{c}"), h)
        })
        .collect();

    // The window opens once every client has warmed up. The watchdog
    // covers the warm-up too: a client that hangs there is named.
    let deadline = now_ns() + measure_ns + WEDGE_GRACE_NS;
    while ready.load(Ordering::SeqCst) < FANIN_CLIENTS as u64 {
        if now_ns() > deadline {
            let tasks = (0..FANIN_CLIENTS)
                .map(|c| format!("client{c} (warm-up)"))
                .collect();
            return Err(wedged(tasks, &progress, scheduled));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let counters_start = aggregate(&world.nos);
    let cpu_start = process_cpu_ns();
    // Leave the clients a moment before the first due time, so client 0's
    // first call is not late by construction.
    origin.store(now_ns() + 1_000_000, Ordering::SeqCst);
    let mut outs = match join_all(clients, deadline) {
        Ok(v) => v,
        Err(mut tasks) => {
            if !worker.is_finished() {
                tasks.push("worker0".into());
            }
            return Err(wedged(tasks, &progress, scheduled));
        }
    };
    let worker_spans = match join_all(vec![("worker0".to_string(), worker)], deadline) {
        Ok(mut v) => v.pop().expect("one worker"),
        Err(tasks) => return Err(wedged(tasks, &progress, scheduled)),
    };
    let last = (0..outs.len())
        .max_by_key(|&i| outs[i].window.1)
        .expect("fan-in has clients");
    let mut run = Run {
        window: (outs[0].window.0, outs[last].window.1),
        cpu_ns: outs[last].cpu_end - cpu_start - outs.iter().map(|o| o.pacing_cpu_ns).sum::<u64>(),
        counters: outs[last].counters_end.diff(&counters_start),
        scheduled,
        ..Run::default()
    };
    for (c, o) in outs.iter_mut().enumerate() {
        run.calls += o.lat_ns.len() as u64;
        run.wrong += o.wrong;
        run.over_deadline += o.over_deadline;
        run.lat_ns.append(&mut o.lat_ns);
        run.gen_late_ns.append(&mut o.gen_late_ns);
        run.tel_read_ns.append(&mut o.tel_read_ns);
        run.tel_fails += o.tel_fails;
        if P::TRACED {
            run.threads
                .push((format!("client{c}"), false, std::mem::take(&mut o.spans)));
        }
    }
    if P::TRACED {
        run.threads.push(("worker0".into(), true, worker_spans));
    }
    Ok(run)
}

/// Runs `workload` for `measure_ns` with probe `P`.
pub fn run<P: Probe + 'static>(
    workload: Workload,
    sched: Schedule,
    measure_ns: u64,
) -> Result<Run, Wedged> {
    match workload {
        Workload::PingpongSpin => {
            pingpong::<P>(WaitStrategy::Bsls { max_spin: MAX_SPIN }, sched, measure_ns)
        }
        Workload::PingpongBlock => pingpong::<P>(WaitStrategy::Bsw, sched, measure_ns),
        Workload::FaninPaced => fanin::<P>(sched, measure_ns),
    }
}

/// Seconds from creating the channel or server to the first completed
/// call, for one fresh world; the world is torn down again.
pub fn setup_once(workload: Workload, sched: Schedule) -> f64 {
    let m = sched.request(Schedule::req_id(0, 0));
    match workload {
        Workload::PingpongSpin | Workload::PingpongBlock => {
            let strategy = match workload {
                Workload::PingpongSpin => WaitStrategy::Bsls { max_spin: MAX_SPIN },
                _ => WaitStrategy::Bsw,
            };
            let t0 = now_ns();
            let nos = NativeOs::new(NativeConfig::for_clients(1));
            let ch = Channel::create(&ChannelConfig::new(1)).expect("arena sized from its config");
            let server = {
                let (nos, ch) = (Arc::clone(&nos), ch.clone());
                std::thread::spawn(move || run_server(&ch, &nos.task(0), strategy, |m| m))
            };
            let os = nos.task(1);
            let ep = ch.client(&os, 0, strategy);
            let reply = ep.call(m);
            let t1 = now_ns();
            assert!(echoes(&m, &reply), "set-up call answered wrongly");
            ep.disconnect();
            server.join().expect("set-up server panicked");
            (t1 - t0) as f64 / 1e9
        }
        Workload::FaninPaced => {
            let t0 = now_ns();
            let world = Fanin::create();
            let worker = world.spawn_worker::<usipc::NativeTask>(sched);
            let os: Vec<_> = (0..FANIN_CLIENTS).map(|c| world.nos.task(1 + c)).collect();
            let reply = world.srv.client(&os[0], 0).call(m);
            let t1 = now_ns();
            assert!(echoes(&m, &reply), "set-up call answered wrongly");
            for (c, os) in os.iter().enumerate() {
                world.srv.client(os, c as u32).disconnect();
            }
            worker.join().expect("set-up worker panicked");
            (t1 - t0) as f64 / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (Schedule::new(7), Schedule::new(7));
        for req in [
            0,
            1,
            2,
            Schedule::req_id(1, 5),
            Schedule::req_id(3, 1 << 30),
        ] {
            assert_eq!(a.request(req), b.request(req));
            assert_eq!(a.service_ns(req), b.service_ns(req));
        }
        let other = Schedule::new(8);
        let differ = (0..64)
            .filter(|&r| a.payload(r) != other.payload(r))
            .count();
        assert!(differ >= 60, "another seed gives other payloads");
        let svc = (0..64)
            .filter(|&r| a.service_ns(r) != other.service_ns(r))
            .count();
        assert!(svc >= 50, "another seed gives other service times");
    }

    #[test]
    fn inputs_stay_in_range() {
        let s = Schedule::new(1);
        for r in 0..10_000 {
            let p = s.payload(r);
            assert!(p.is_finite() && p.abs() < 1e6);
            assert!(s.service_ns(r) <= MAX_SERVICE_NS);
        }
    }

    #[test]
    fn schedule_interleaves_clients_at_the_aggregate_rate() {
        let gap = (1e9 / FANIN_RATE) as u64;
        assert_eq!(Schedule::due_ns(0, 0), 0);
        assert_eq!(Schedule::due_ns(1, 0), gap);
        assert_eq!(Schedule::due_ns(0, 1), 2 * gap);
        assert_eq!(Schedule::due_ns(1, 1), 3 * gap);
    }

    #[test]
    fn replies_are_checked_field_by_field() {
        let s = Schedule::new(3);
        let m = s.request(9);
        assert!(echoes(&m, &m));
        assert!(
            !echoes(&m, &Message { aux: 10, ..m }),
            "reply to another call"
        );
        assert!(!echoes(
            &m,
            &Message {
                value: m.value + 1.0,
                ..m
            }
        ));
        assert!(!echoes(
            &m,
            &Message {
                opcode: opcode::DISCONNECT,
                ..m
            }
        ));
    }

    #[test]
    fn every_workload_sets_up_and_answers() {
        for w in Workload::ALL {
            let s = setup_once(w, Schedule::new(11));
            assert!(s > 0.0 && s < 5.0, "{}: set-up took {s} s", w.name());
        }
    }

    #[test]
    fn short_runs_answer_every_call() {
        for w in Workload::ALL {
            let run = run::<usipc::NativeTask>(w, Schedule::new(5), 20_000_000)
                .unwrap_or_else(|e| panic!("{} wedged: {e:?}", w.name()));
            assert!(run.calls > 0, "{}", w.name());
            assert_eq!(run.wrong, 0, "{}", w.name());
            assert_eq!(run.lat_ns.len() as u64, run.calls);
        }
    }
}
