//! The single-threaded server runtime.
//!
//! §2.2: "The server is placed in a tight Receive/Reply loop that accepts
//! connections and processes requests, where the processing per request is
//! simply to echo the argument back to the client. ... the server does not
//! know in advance how many messages it must process", so clients signal
//! completion with a DISCONNECT request, and the server runs until the last
//! client disconnects.

use crate::channel::Channel;
use crate::metrics::{MetricsSnapshot, ProtoEvent};
use crate::msg::{opcode, Message};
use crate::platform::{Cost, OsServices};
use crate::protocol::WaitStrategy;
use crate::telemetry::{FlightRecorder, TelemetryWriter};

/// Statistics from one server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerRun {
    /// Requests processed, including the final DISCONNECTs.
    pub processed: u64,
    /// DISCONNECTs observed (equals the client count on a clean run).
    pub disconnects: u32,
    /// Requests dropped because their client-supplied `channel` named no
    /// reply queue (see [`ProtoEvent::MalformedRequest`]).
    pub malformed: u64,
    /// Clients reaped after dying mid-session instead of disconnecting
    /// (only [`run_resilient_server`] can observe deaths; always zero for
    /// the classic loops).
    pub reaped: u32,
    /// Protocol events recorded by the server task during this run (all
    /// zero when the backend does not collect metrics).
    pub metrics: MetricsSnapshot,
}

/// Snapshot of the calling task's counters, or zeros when collection is
/// off — so `end.diff(&start)` windows a run either way.
fn task_snapshot<O: OsServices>(os: &O) -> MetricsSnapshot {
    os.metrics().map(|m| m.snapshot()).unwrap_or_default()
}

/// Runs a request/reply server until every client has disconnected.
///
/// `handler` maps each non-DISCONNECT request to its reply; DISCONNECT is
/// handled internally (echoed back so the client's synchronous `Send`
/// completes, then counted towards termination). The handler's cost is
/// charged as [`Cost::Request`].
pub fn run_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    mut handler: impl FnMut(Message) -> Message,
) -> ServerRun {
    ch.register_server_task(os.task_id());
    let mut live = ch.n_clients();
    let mut run = ServerRun::default();
    let start = task_snapshot(os);
    let server = ch.server(os, strategy);
    while live > 0 {
        let m = server.receive();
        // `m.channel` crossed the shared-memory trust boundary: an
        // out-of-range value names no reply queue, so drop and count it
        // rather than let a buggy or hostile client kill the server.
        if m.channel >= ch.n_clients() {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        if m.opcode == opcode::DISCONNECT {
            run.disconnects += 1;
            live -= 1;
            server.reply(m.channel, m);
        } else {
            let mut ans = handler(m);
            ans.channel = m.channel;
            server.reply(m.channel, ans);
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    run
}

/// Runs a request/reply server that **survives client death** (DESIGN.md,
/// "Failure model").
///
/// Identical to [`run_server`] on the happy path, but every wait is
/// bounded by `heartbeat`: each expiry the server scans the per-client
/// liveness words and *reaps* dead clients — records
/// [`ProtoEvent::PeerDeathDetected`], poisons **only that client's reply
/// queue** (sticky; in-flight slots drain back to the pool), and stops
/// counting the client towards termination. Replies go out via the
/// fallible path, so a client that dies with the server mid-`Reply` is
/// reaped there instead of wedging the enqueue back-off. The loop ends
/// when every client has either disconnected or been reaped, or when the
/// shared receive queue itself is poisoned (the whole channel declared
/// dead under the server).
///
/// Worst-case detection latency is one `heartbeat` period plus the wait
/// strategy's own slack; shorten the period for faster failover at the
/// cost of more spurious server wake-ups.
pub fn run_resilient_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: core::time::Duration,
    handler: impl FnMut(Message) -> Message,
) -> ServerRun {
    run_resilient_server_observed(
        ch,
        os,
        strategy,
        heartbeat,
        ServerObservability::none(),
        handler,
    )
    .0
}

/// Observability hooks for [`run_resilient_server_observed`]: both are
/// optional, and both cost nothing when absent.
#[derive(Default)]
pub struct ServerObservability<'a> {
    /// Telemetry slot the server publishes into — each heartbeat expiry
    /// and every 64th request, so an external `usipc-top` sees advancing
    /// counters and gauges whether the server is idle or saturated.
    pub telemetry: Option<&'a TelemetryWriter>,
    /// Flight recorder to dump when the first peer death is detected.
    pub flight: Option<&'a FlightRecorder>,
    /// Task names for the flight dump's Perfetto metadata.
    pub task_names: Vec<(u32, String)>,
}

impl ServerObservability<'_> {
    /// No hooks: behaves exactly like [`run_resilient_server`].
    pub fn none() -> Self {
        Self::default()
    }
}

/// [`run_resilient_server`] with the observability plane attached; see
/// [`ServerObservability`]. Returns the run plus the **flight-recorder
/// postmortem**: the first time a peer death is detected (by liveness scan
/// or by a failed reply), the last events of *every* task — including the
/// victim's, read out of shared memory where they survived the death — are
/// serialized as Perfetto/Chrome JSON.
pub fn run_resilient_server_observed<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: core::time::Duration,
    obs: ServerObservability<'_>,
    mut handler: impl FnMut(Message) -> Message,
) -> (ServerRun, Option<String>) {
    use crate::fault::IpcError;
    ch.register_server_task(os.task_id());
    let n = ch.n_clients();
    // A client is "gone" once disconnected *or* reaped; each decrements
    // `live` exactly once, whichever order deaths and scans land in. A
    // successor starts with the clients that already said goodbye to a
    // dead incarnation gone: they will never disconnect again.
    let mut gone: Vec<bool> = (0..n).map(|c| ch.reply_queue(c).departed()).collect();
    let mut live = gone.iter().filter(|&&g| !g).count() as u32;
    let mut run = ServerRun::default();
    let mut postmortem: Option<String> = None;
    let start = task_snapshot(os);
    let server = ch.server(os, strategy);
    let reap = |c: u32, gone: &mut [bool], live: &mut u32, run: &mut ServerRun| {
        if !gone[c as usize] {
            gone[c as usize] = true;
            *live -= 1;
            run.reaped += 1;
        }
    };
    // The postmortem is cut at the *first* death: that is the instant the
    // victim's final events are freshest in its shared-memory ring, before
    // the survivors' continuing traffic overwrites context around them.
    let dump = |slot: &mut Option<String>| {
        if slot.is_none() {
            if let Some(f) = obs.flight {
                *slot = Some(f.collect(&obs.task_names).to_chrome_json());
            }
        }
    };
    let publish = |run: &ServerRun, live: u32| {
        if let Some(w) = obs.telemetry {
            let snap = task_snapshot(os).diff(&start);
            w.set_queue_depth(ch.receive_queue().queued_len() as u64);
            w.set_waiters(live as u64);
            w.set_progress(run.processed);
            w.set_slots_leaked(snap.slots_leaked);
            w.publish(&snap);
        }
    };
    publish(&run, live);
    while live > 0 {
        let m = match server.receive_deadline(heartbeat) {
            Ok(m) => m,
            Err(IpcError::Timeout) => {
                // Liveness scan: reap clients whose death was marked (or
                // whose queue someone already poisoned) since last pass.
                for c in 0..n {
                    if gone[c as usize] {
                        continue;
                    }
                    let rq = ch.reply_queue(c);
                    if !rq.consumer_alive() {
                        os.record(ProtoEvent::PeerDeathDetected);
                        dump(&mut postmortem);
                        rq.poison(os);
                        reap(c, &mut gone, &mut live, &mut run);
                    } else if rq.is_poisoned() {
                        reap(c, &mut gone, &mut live, &mut run);
                    }
                }
                publish(&run, live);
                continue;
            }
            // The receive queue itself was poisoned: the channel as a
            // whole is dead under us — stop serving.
            Err(_) => break,
        };
        if m.channel >= n {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        if run.processed % 64 == 0 {
            publish(&run, live);
        }
        if m.opcode == opcode::DISCONNECT {
            run.disconnects += 1;
            // Before the reply: once the client has it, its session is
            // over even if this incarnation dies right after.
            ch.reply_queue(m.channel).mark_departed();
            if !gone[m.channel as usize] {
                gone[m.channel as usize] = true;
                live -= 1;
            }
            let _ = server.reply_deadline(m.channel, m, heartbeat);
        } else {
            let mut ans = handler(m);
            ans.channel = m.channel;
            match server.reply_deadline(m.channel, ans, heartbeat) {
                Ok(()) => {}
                Err(IpcError::PeerDead) | Err(IpcError::Poisoned) => {
                    dump(&mut postmortem);
                    reap(m.channel, &mut gone, &mut live, &mut run);
                }
                Err(_) => {} // QueueFull/Timeout: reply dropped, client's
                             // own deadline machinery recovers
            }
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    publish(&run, live);
    (run, postmortem)
}

/// The paper's benchmark server: echoes the argument back.
pub fn run_echo_server<O: OsServices>(ch: &Channel, os: &O, strategy: WaitStrategy) -> ServerRun {
    run_server(ch, os, strategy, |m| m)
}

/// The paper's future work (§5), implemented: an overload-aware BSLS
/// server that *throttles wake-ups*.
///
/// "We could break the positive feedback in the BSLS algorithm by having
/// the server recognize the fact that it is overloaded, and limit the
/// number of clients it wakes up at any given time. The challenge is
/// constraining the concurrency in this fashion while guaranteeing that
/// starvation doesn't occur. We leave this for future work."
///
/// Replies are enqueued immediately (so spinning clients proceed without
/// any kernel help), but the wake-up `V` for clients that may have gone to
/// sleep is deferred onto a FIFO list, and the list is drained — at most
/// `wake_batch` per receive iteration — **only while the receive queue
/// shows no backlog**. That is the admission control: while already-awake
/// clients keep the server saturated, sleepers stay asleep instead of
/// joining the spin contest; the moment the backlog clears (including the
/// everyone-asleep case, where the queue is empty), wake-ups flow again.
///
/// Starvation-freedom: the deferral list is FIFO, a backlogged server
/// drains it as soon as the backlog clears (which it must, since no new
/// clients are being woken), and the BSW-family wait loop tolerates late
/// or unnecessary wake-ups by construction — the `tas`-guarded `P`
/// absorbs stray credits. The server only polls while the list is
/// non-empty and never blocks on it: a client owed a deferred wake-up may
/// be asleep, and then nothing else would wake the server. The Fig. 11
/// ablation (`figures throttle`) shows this removes the BSLS cliff
/// entirely.
pub fn run_throttled_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    max_spin: u32,
    wake_batch: usize,
) -> ServerRun {
    use crate::protocol::{bsls, enqueue_or_sleep};
    use std::collections::VecDeque;
    assert!(
        wake_batch >= 1,
        "wake_batch must be at least 1 for liveness"
    );
    ch.register_server_task(os.task_id());
    let mut live = ch.n_clients();
    let mut run = ServerRun::default();
    let start = task_snapshot(os);
    let mut pending_wakes: VecDeque<u32> = VecDeque::new();
    while live > 0 || !pending_wakes.is_empty() {
        // Admission control: while the receive queue shows backlog, the
        // awake clients already keep the server saturated — leave the
        // sleepers asleep. Once the backlog clears (which also covers the
        // everyone-is-asleep case, where the queue is empty), drain the
        // deferred wake-ups oldest-first, bounded per cycle.
        let overloaded = live > 0 && ch.receive_queue().queued_len() >= 2;
        if !overloaded {
            for _ in 0..wake_batch {
                match pending_wakes.pop_front() {
                    Some(c) => ch.reply_queue(c).wake_consumer(os),
                    None => break,
                }
            }
        }
        if live == 0 {
            continue;
        }
        // Never sleep on a deferred wake-up: a client whose wake is still
        // pending may be asleep, and nobody else would wake the server.
        // Until the list is drained, only poll the receive queue.
        let m = if pending_wakes.is_empty() {
            bsls::receive(ch, os, max_spin)
        } else {
            match ch.receive_queue().try_dequeue(os) {
                Some(m) => m,
                None => continue,
            }
        };
        if m.channel >= ch.n_clients() {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        if m.opcode == opcode::DISCONNECT {
            run.disconnects += 1;
            live -= 1;
            // Disconnects are replied and woken eagerly: the client is
            // definitely waiting, and the session is ending anyway.
            let rq = ch.reply_queue(m.channel);
            enqueue_or_sleep(&rq, os, m);
            rq.wake_consumer(os);
        } else {
            let rq = ch.reply_queue(m.channel);
            enqueue_or_sleep(&rq, os, m);
            // Defer the wake-up; a spinning (BSLS) client will usually
            // collect the reply before this V is ever needed.
            pending_wakes.push_back(m.channel);
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    run
}

/// A calculator server used by the examples: a per-client accumulator
/// driven by ADD/MUL/READ requests.
pub fn run_calculator_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
) -> ServerRun {
    let mut accum = vec![0.0f64; ch.n_clients() as usize];
    run_server(ch, os, strategy, move |m| {
        let a = &mut accum[m.channel as usize];
        let value = match m.opcode {
            opcode::ADD => {
                *a += m.value;
                *a
            }
            opcode::MUL => {
                *a *= m.value;
                *a
            }
            opcode::READ => *a,
            _ => f64::NAN, // unknown opcode: NaN reply, like an EINVAL
        };
        Message {
            opcode: m.opcode,
            channel: m.channel,
            value,
            aux: 0,
        }
    })
}
