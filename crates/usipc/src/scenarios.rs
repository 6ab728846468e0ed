//! Named, explorer-ready scenarios for the Fig. 4 sleep/wake-up races.
//!
//! `tests/race_regressions.rs` pins each race with one hand-scripted
//! schedule (precise `work()` gaps). This module expresses the same
//! protagonists — a blocking consumer and one or more producers on a shared
//! [`WaitableQueue`](crate::WaitableQueue) — as *scenarios* for the
//! schedule-space explorer ([`usipc_sim::Explorer`]): the explorer, not the
//! test author, chooses where every preemption lands, so the assertions
//! hold over **all** schedules at the bounded depth rather than one.
//!
//! Every protocol step of interest drops a zero-cost [`Sys::mark`]
//! (codes in [`marks`]), and [`Interleaving::exhibited`] reads the mark
//! history of a finished run to decide which of the four Fig. 4
//! interleavings that schedule actually performed. Tests then assert both
//! directions: each interleaving *occurs* somewhere in the explored space
//! (the scenario really exercises the race), and no schedule violates the
//! invariants (the protocol really closes it).
//!
//! Mutants ([`ConsumerKind::NoRecheck`], [`ProducerKind::UnguardedV`])
//! reintroduce the historical bugs — the missing re-check of interleaving 4
//! and the unguarded `V` whose credits "can accumulate — eventually causing
//! an overflow of the semaphore value (this happened in our first version
//! of the algorithm!)" (§3) — and must produce counterexamples.
//!
//! [`Sys::mark`]: usipc_sim::Sys::mark

use crate::channel::{Channel, ChannelConfig};
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::WaitStrategy;
use crate::server::{run_echo_server, run_throttled_server};
use crate::simulated::{SimCosts, SimIds, SimOs};
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usipc_sim::{MachineModel, ScenarioCheck, SimBuilder, SimReport};

/// Mark codes recorded by the scenario tasks (consumer 1–7, producer
/// 10–12). Marks are cost-free, so instrumentation never perturbs the
/// schedule space being explored.
pub mod marks {
    /// Consumer: first `dequeue` of a wait round found the queue empty.
    pub const EMPTY1: u64 = 1;
    /// Consumer: `awake` cleared (the "I may sleep" announcement).
    pub const CLEARED: u64 = 2;
    /// Consumer: re-check also empty — committing to `P`.
    pub const BLOCK_COMMIT: u64 = 3;
    /// Consumer: returned from the committed `P` and re-set `awake`.
    pub const WOKE: u64 = 4;
    /// Consumer: the re-check found a message (the Fig. 5 `else` branch).
    pub const RECHECK_GOT: u64 = 5;
    /// Consumer: `tas` saw a producer's wake-up; absorbed it with an extra
    /// `P` (interleaving 3's fix firing).
    pub const ABSORBED: u64 = 6;
    /// Consumer: the committed `P` returned *without blocking* — it
    /// consumed a credit banked before the sleep (interleaving 1's fix:
    /// counting semaphores remember early wake-ups).
    pub const PENDING_CREDIT: u64 = 7;
    /// Producer: message enqueued.
    pub const ENQUEUED: u64 = 10;
    /// Producer: `tas` found `awake == 0` — posted the wake-up `V`.
    pub const V_POSTED: u64 = 11;
    /// Producer: `tas` found `awake == 1` — wake-up suppressed.
    pub const V_SUPPRESSED: u64 = 12;
}

/// Which consumer runs in a [`Fig4Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerKind {
    /// The Fig. 5 wait loop: clear, re-check, `tas`-guarded stray-credit
    /// absorption.
    Correct,
    /// Mutant: clears `awake` and sleeps with **no re-check** — reopens
    /// interleaving 4 (a producer that saw `awake == 1` posts no `V`, and
    /// the consumer sleeps forever on a non-empty queue).
    NoRecheck,
}

/// Which producers run in a [`Fig4Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProducerKind {
    /// The Fig. 5 producer: `if (!tas(&Q->awake)) V(Q->sem)`.
    Guarded,
    /// Mutant: `V` on every enqueue, no `tas` guard — reopens
    /// interleavings 2/3 (stray credits accumulate without bound, the §3
    /// overflow).
    UnguardedV,
}

/// One consumer and `producers` producers racing on a shared waitable
/// queue — the exact cast of Fig. 4 — parameterized by protocol variant so
/// the same scenario proves the stock protocol correct and the mutants
/// broken.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Scenario {
    /// Number of producer tasks (Fig. 4's interleaving 2 needs ≥ 2).
    pub producers: u32,
    /// Messages each producer enqueues.
    pub msgs_per_producer: u32,
    /// Consumer variant.
    pub consumer: ConsumerKind,
    /// Producer variant.
    pub producer: ProducerKind,
}

impl Fig4Scenario {
    /// The stock BSW cast: correct consumer, guarded producers.
    pub fn stock(producers: u32, msgs_per_producer: u32) -> Self {
        Fig4Scenario {
            producers,
            msgs_per_producer,
            consumer: ConsumerKind::Correct,
            producer: ProducerKind::Guarded,
        }
    }

    /// A scenario closure for [`usipc_sim::Explorer::run`]: builds a fresh
    /// channel per run, spawns the cast, and checks that the consumer
    /// consumed every message exactly once.
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        move |b: &mut SimBuilder| {
            let mut ids = SimIds::default();
            ids.sems.push(b.add_sem(0)); // server_sem(): the consumer's
            let ids = Arc::new(ids);
            let costs = SimCosts::from_machine(&MachineModel::explore());
            let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
            let total = u64::from(self.producers * self.msgs_per_producer);
            let consumed = Arc::new(AtomicU64::new(0));

            let (ch, ids2, count) = (channel.clone(), Arc::clone(&ids), Arc::clone(&consumed));
            let consumer = self.consumer;
            b.spawn("consumer", move |sys| {
                let os = SimOs::new(sys, ids2, costs, false, 0);
                let q = ch.receive_queue();
                let mut got = 0u64;
                while got < total {
                    if q.try_dequeue(&os).is_some() {
                        got += 1;
                        count.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    sys.mark(marks::EMPTY1);
                    q.clear_awake(&os);
                    sys.mark(marks::CLEARED);
                    match consumer {
                        ConsumerKind::Correct => match q.try_dequeue(&os) {
                            None => {
                                let before = sys.rusage().blocks;
                                sys.mark(marks::BLOCK_COMMIT);
                                os.sem_p(q.sem());
                                if sys.rusage().blocks == before {
                                    sys.mark(marks::PENDING_CREDIT);
                                }
                                q.set_awake(&os);
                                sys.mark(marks::WOKE);
                            }
                            Some(_) => {
                                sys.mark(marks::RECHECK_GOT);
                                if q.tas_awake(&os) {
                                    sys.mark(marks::ABSORBED);
                                    os.sem_p(q.sem());
                                }
                                got += 1;
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        ConsumerKind::NoRecheck => {
                            // BUG under test: sleep with no re-check.
                            sys.mark(marks::BLOCK_COMMIT);
                            os.sem_p(q.sem());
                            q.set_awake(&os);
                            sys.mark(marks::WOKE);
                        }
                    }
                }
            });

            for p in 0..self.producers {
                let (ch, ids2) = (channel.clone(), Arc::clone(&ids));
                let (producer, msgs) = (self.producer, self.msgs_per_producer);
                b.spawn(format!("producer{p}"), move |sys| {
                    let os = SimOs::new(sys, ids2, costs, false, 1 + p);
                    let q = ch.receive_queue();
                    for i in 0..msgs {
                        assert!(q.try_enqueue(&os, Message::echo(0, f64::from(i))));
                        sys.mark(marks::ENQUEUED);
                        match producer {
                            ProducerKind::Guarded => {
                                if q.tas_awake(&os) {
                                    sys.mark(marks::V_SUPPRESSED);
                                } else {
                                    sys.mark(marks::V_POSTED);
                                    os.sem_v(q.sem());
                                }
                            }
                            ProducerKind::UnguardedV => {
                                // BUG under test: V without the tas guard.
                                sys.mark(marks::V_POSTED);
                                os.sem_v(q.sem());
                            }
                        }
                    }
                });
            }

            Box::new(move |_r: &SimReport| {
                let got = consumed.load(Ordering::Relaxed);
                if got == total {
                    Ok(())
                } else {
                    Err(format!("consumed {got} of {total} messages"))
                }
            })
        }
    }
}

/// The four execution interleavings of Fig. 4, detectable from a finished
/// run's mark history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleaving {
    /// 1 — the producer's `V` lands between the consumer's failed re-check
    /// and its `P`; the counting semaphore banks the credit and the `P`
    /// returns without blocking.
    WakeupBeforeSleep,
    /// 2 — a second producer's wake-up is suppressed by the `tas` because
    /// another producer already posted one (without the guard, credits
    /// accumulate).
    MultipleWakeups,
    /// 3 — a wake-up was posted but the consumer's re-check already got the
    /// message; the `tas`-guarded extra `P` absorbs the stray credit.
    WakeupWithoutSleep,
    /// 4 — the producer checked `awake` *before* the consumer cleared it
    /// (no `V` posted); only the re-check saves the consumer from sleeping
    /// on a non-empty queue.
    SleepAfterCheck,
}

/// All four, for iteration.
pub const ALL_INTERLEAVINGS: [Interleaving; 4] = [
    Interleaving::WakeupBeforeSleep,
    Interleaving::MultipleWakeups,
    Interleaving::WakeupWithoutSleep,
    Interleaving::SleepAfterCheck,
];

impl Interleaving {
    /// The paper's name for the interleaving.
    pub fn name(self) -> &'static str {
        match self {
            Interleaving::WakeupBeforeSleep => "wake-up before sleep",
            Interleaving::MultipleWakeups => "multiple wake-ups",
            Interleaving::WakeupWithoutSleep => "wake-up without sleep",
            Interleaving::SleepAfterCheck => "sleep after check",
        }
    }

    /// Whether this interleaving occurred in `r`'s schedule, judged from
    /// the [`marks`] history of a [`Fig4Scenario`] run.
    pub fn exhibited(self, r: &SimReport) -> bool {
        let ms = &r.marks; // sorted by (time, pid)
        match self {
            // The committed P consumed a banked credit instead of blocking.
            Interleaving::WakeupBeforeSleep => ms.iter().any(|m| m.code == marks::PENDING_CREDIT),
            // A producer's V was suppressed while the flag was set by a
            // *different producer's* posted V — no consumer re-set of
            // `awake` (WOKE / RECHECK_GOT) in between.
            Interleaving::MultipleWakeups => ms.iter().enumerate().any(|(i, sup)| {
                sup.code == marks::V_SUPPRESSED
                    && ms[..i]
                        .iter()
                        .rev()
                        .take_while(|m| m.code != marks::WOKE && m.code != marks::RECHECK_GOT)
                        .any(|m| m.code == marks::V_POSTED && m.pid != sup.pid)
            }),
            // The tas-guarded absorption fired.
            Interleaving::WakeupWithoutSleep => ms.iter().any(|m| m.code == marks::ABSORBED),
            // A producer was suppressed between the consumer's failed first
            // dequeue and its clear — and that wait round was saved by the
            // re-check.
            Interleaving::SleepAfterCheck => {
                ms.iter().enumerate().any(|(i, e1)| {
                    if e1.code != marks::EMPTY1 {
                        return false;
                    }
                    let mut suppressed = false;
                    for m in &ms[i + 1..] {
                        match m.code {
                            marks::V_SUPPRESSED => suppressed = true,
                            marks::CLEARED => {
                                // Round outcome: the next consumer wait mark.
                                return suppressed
                                    && ms.iter().skip(i + 1).find_map(|n| match n.code {
                                        marks::RECHECK_GOT => Some(true),
                                        marks::BLOCK_COMMIT => Some(false),
                                        _ => None,
                                    }) == Some(true);
                            }
                            _ => {}
                        }
                    }
                    false
                })
            }
        }
    }
}

/// A full-protocol scenario: one echo server and `n_clients` synchronous
/// clients under `strategy`, with an answered-exactly-once check (every
/// client call returned, with the right value, `msgs` times per client).
///
/// This is the closure form the explorer wants; unlike [`Fig4Scenario`] it
/// exercises the real [`WaitStrategy`] code paths end to end, reply queues
/// included — the invariant that reply-queue `max_count` stays ≤ 1 across
/// all schedules is checked via [`usipc_sim::Explorer::sem_bound`].
pub fn echo_scenario(
    strategy: WaitStrategy,
    n_clients: u32,
    msgs: u32,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    echo_world(strategy, n_clients, msgs, move |ch, os| {
        run_echo_server(ch, os, strategy);
    })
}

/// [`echo_scenario`] with the §5 overload-aware server
/// ([`run_throttled_server`]) behind BSLS(`max_spin`) clients: every call
/// must be answered even though reply wake-ups are deferred. A schedule in
/// which the server sleeps while a client still waits for a deferred
/// wake-up shows up as an unanswered call.
pub fn throttled_scenario(
    max_spin: u32,
    wake_batch: usize,
    n_clients: u32,
    msgs: u32,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    let strategy = WaitStrategy::Bsls { max_spin };
    echo_world(strategy, n_clients, msgs, move |ch, os| {
        run_throttled_server(ch, os, max_spin, wake_batch);
    })
}

/// One `server` task and `n_clients` synchronous `strategy` clients, each
/// making `msgs` echo calls, then disconnecting; the check counts answers.
fn echo_world(
    strategy: WaitStrategy,
    n_clients: u32,
    msgs: u32,
    server: impl Fn(&Channel, &SimOs) + Clone + Send + 'static,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    move |b: &mut SimBuilder| {
        let mut ids = SimIds::default();
        for _ in 0..=n_clients {
            ids.sems.push(b.add_sem(0)); // 0: server; 1+c: client c
        }
        let ids = Arc::new(ids);
        let costs = SimCosts::from_machine(&MachineModel::explore());
        let channel = Channel::create(&ChannelConfig::new(n_clients as usize)).unwrap();
        let total = u64::from(n_clients * msgs);
        let answered = Arc::new(AtomicU64::new(0));

        let (ch, ids2, server) = (channel.clone(), Arc::clone(&ids), server.clone());
        b.spawn("server", move |sys| {
            let os = SimOs::new(sys, ids2, costs, false, 0);
            server(&ch, &os);
        });
        for c in 0..n_clients {
            let (ch, ids2, count) = (channel.clone(), Arc::clone(&ids), Arc::clone(&answered));
            b.spawn(format!("client{c}"), move |sys| {
                let os = SimOs::new(sys, ids2, costs, false, 1 + c);
                let client = ch.client(&os, c, strategy);
                for i in 0..msgs {
                    let v = f64::from(c * 100 + i);
                    assert_eq!(client.echo(v), v, "echo must return the argument");
                    count.fetch_add(1, Ordering::Relaxed);
                }
                client.disconnect();
            });
        }

        Box::new(move |_r: &SimReport| {
            let got = answered.load(Ordering::Relaxed);
            if got == total {
                Ok(())
            } else {
                Err(format!("answered {got} of {total} requests"))
            }
        })
    }
}

/// Heartbeat period of the fault scenarios' resilient server (virtual
/// time). Small enough that a kill is detected well inside the explorer's
/// 50 ms virtual time limit, large enough that a fault-free run blocks
/// rather than degenerating into a polling loop.
const FAULT_HEARTBEAT: core::time::Duration = core::time::Duration::from_micros(300);

/// Per-call deadline of the fault scenarios' clients (virtual time).
const FAULT_CALL_DEADLINE: core::time::Duration = core::time::Duration::from_millis(3);

/// Victim value meaning "no fault": the plan never fires and the run must
/// complete every echo — the baseline of a kill-at-op sweep.
pub const NO_VICTIM: u32 = u32::MAX;

/// A kill-at-op fault scenario over the **real fallible protocol paths**:
/// `n_clients` clients call through
/// [`call_deadline`](crate::ClientEndpoint::call_deadline) while the
/// server runs the resilient receive/reap/reply loop, and the task named
/// `victim` (0 = server, `1 + c` = client `c`) dies at its `at_op`-th
/// kill point. A dying task performs its native death rites — the server
/// [`tombstone`](crate::Channel::tombstone_server)s the channel, a client
/// [marks](crate::QueueRef::mark_consumer_dead) its reply queue — and the
/// explorer then proves, over every schedule at the bounded depth, that
/// all survivors finish with `PeerDead`/`Timeout`/`Poisoned` or success:
/// never a deadlock, never the virtual time limit.
///
/// Kill points sit at protocol-operation boundaries (before each receive
/// commit, in the dequeue→reply window, before each client call); the
/// explorer's preemption decisions move every *other* task across the
/// full interleaving space around the fixed kill site. Sweeping `at_op`
/// past the victim's op count degenerates to fault-free runs, so a sweep
/// over `0..K` is always well-formed.
#[derive(Debug, Clone, Copy)]
pub struct FaultScenario {
    /// Wait strategy under test (all five protocols are explorable).
    pub strategy: WaitStrategy,
    /// Number of clients.
    pub n_clients: u32,
    /// Echo calls per client (before the disconnect).
    pub msgs: u32,
    /// Task to kill: 0 = server, `1 + c` = client `c`, [`NO_VICTIM`] for
    /// the fault-free baseline.
    pub victim: u32,
    /// 0-based kill point index within the victim's own op sequence.
    pub at_op: u64,
}

impl FaultScenario {
    /// The machine to explore this scenario on. Blocking protocols run on
    /// the adversarial uniprocessor; BSS spins unboundedly, which on one
    /// CPU under the explorer's run-to-completion default is starvation
    /// by construction (the paper gives BSS dedicated processors for the
    /// same reason), so BSS gets a second CPU and time-advancing spins.
    pub fn machine(self) -> MachineModel {
        let mut m = MachineModel::explore();
        if matches!(self.strategy, WaitStrategy::Bss) {
            m.cpus = 2;
        }
        m
    }

    /// A scenario closure for [`usipc_sim::Explorer::run`].
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        use crate::fault::{FaultAction, FaultPlan, IpcError};
        // On the 2-CPU BSS machine the spinner must burn virtual time
        // (`multiprocessor` spin pacing), or its deadline never expires.
        let mp = matches!(self.strategy, WaitStrategy::Bss);
        move |b: &mut SimBuilder| {
            let mut ids = SimIds::default();
            for _ in 0..=self.n_clients {
                ids.sems.push(b.add_sem(0)); // 0: server; 1+c: client c
            }
            let ids = Arc::new(ids);
            let costs = SimCosts::from_machine(&MachineModel::explore());
            let channel = Channel::create(&ChannelConfig::new(self.n_clients as usize)).unwrap();
            let total = u64::from(self.n_clients * self.msgs);
            let answered = Arc::new(AtomicU64::new(0));
            // Fresh plan per run: the explorer re-executes this builder for
            // every schedule, and the op counter must restart each time.
            let plan = Arc::new(FaultPlan::kill(
                if self.victim == NO_VICTIM {
                    0
                } else {
                    self.victim
                },
                if self.victim == NO_VICTIM {
                    u64::MAX // never fires
                } else {
                    self.at_op
                },
            ));

            let (ch, ids2, plan2) = (channel.clone(), Arc::clone(&ids), Arc::clone(&plan));
            let strategy = self.strategy;
            b.spawn("server", move |sys| {
                let os = SimOs::new(sys, ids2, costs, mp, 0);
                let server = ch.server(&os, strategy);
                ch.register_server_task(0);
                let n = ch.n_clients();
                let mut gone = vec![false; n as usize];
                let mut live = n;
                while live > 0 {
                    // Kill point: about to commit to the next receive.
                    if plan2.fire(0) == Some(FaultAction::Kill) {
                        os.record(crate::metrics::ProtoEvent::FaultInjected);
                        ch.tombstone_server(&os);
                        return;
                    }
                    let m = match server.receive_deadline(FAULT_HEARTBEAT) {
                        Ok(m) => m,
                        Err(IpcError::Timeout) => {
                            for c in 0..n {
                                if gone[c as usize] {
                                    continue;
                                }
                                let rq = ch.reply_queue(c);
                                if !rq.consumer_alive() {
                                    os.record(crate::metrics::ProtoEvent::PeerDeathDetected);
                                    rq.poison(&os);
                                    gone[c as usize] = true;
                                    live -= 1;
                                }
                            }
                            continue;
                        }
                        Err(_) => return,
                    };
                    // Kill point: the Fig. 5 window where the request has
                    // been dequeued but not yet answered.
                    if plan2.fire(0) == Some(FaultAction::Kill) {
                        os.record(crate::metrics::ProtoEvent::FaultInjected);
                        ch.tombstone_server(&os);
                        return;
                    }
                    if m.opcode == crate::opcode::DISCONNECT {
                        if !gone[m.channel as usize] {
                            gone[m.channel as usize] = true;
                            live -= 1;
                        }
                        let _ = server.reply_deadline(m.channel, m, FAULT_HEARTBEAT);
                    } else {
                        match server.reply_deadline(m.channel, m, FAULT_HEARTBEAT) {
                            Err(IpcError::PeerDead) | Err(IpcError::Poisoned)
                                if !gone[m.channel as usize] =>
                            {
                                gone[m.channel as usize] = true;
                                live -= 1;
                            }
                            _ => {}
                        }
                    }
                }
            });

            for c in 0..self.n_clients {
                let (ch, ids2, count) = (channel.clone(), Arc::clone(&ids), Arc::clone(&answered));
                let plan2 = Arc::clone(&plan);
                let (strategy, msgs) = (self.strategy, self.msgs);
                b.spawn(format!("client{c}"), move |sys| {
                    let os = SimOs::new(sys, ids2, costs, mp, 1 + c);
                    let ep = ch.client(&os, c, strategy);
                    for i in 0..msgs {
                        // Kill point: about to issue the next call.
                        if plan2.fire(1 + c) == Some(FaultAction::Kill) {
                            os.record(crate::metrics::ProtoEvent::FaultInjected);
                            ch.reply_queue(c).mark_consumer_dead(&os);
                            return;
                        }
                        match ep.call_deadline(Message::echo(c, f64::from(i)), FAULT_CALL_DEADLINE)
                        {
                            Ok(reply) => {
                                assert_eq!(reply.value, f64::from(i), "echo corrupted");
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                            // PeerDead / Timeout / Poisoned: the failure
                            // model spoke; stop calling.
                            Err(_) => return,
                        }
                    }
                    let _ = ep.call_deadline(Message::disconnect(c), FAULT_CALL_DEADLINE);
                });
            }

            let victim = self.victim;
            Box::new(move |_r: &SimReport| {
                // Deadlock / time-limit / panic are caught by the
                // explorer's own invariants; the scenario only adds that a
                // fault-free baseline must answer everything.
                let got = answered.load(Ordering::Relaxed);
                if victim == NO_VICTIM && got != total {
                    return Err(format!("fault-free run answered {got} of {total}"));
                }
                Ok(())
            })
        }
    }
}

/// The poisoning liveness argument, isolated to its smallest cast — and
/// the mutant that proves the explorer can see it fail.
///
/// One server dequeues a single request and dies before replying. The
/// client waits for the reply with the *poison-aware infinite wait*: no
/// deadline at all — its only rescue is the dying server's tombstone,
/// whose sticky flag it checks on every wait round and whose broadcast
/// `V` is what lifts it out of a committed `P`. With `poisoning: true`
/// every schedule completes with the death detected. With `poisoning:
/// false` (the mutant: the victim dies silently, the flag is never set,
/// the broadcast never posted) the explorer must produce a **deadlock
/// counterexample** — the client parked forever on its reply semaphore —
/// replayable from its decision string.
#[derive(Debug, Clone, Copy)]
pub struct PeerDeathScenario {
    /// Whether the dying server performs its death rites (`false` = the
    /// broken mutant).
    pub poisoning: bool,
}

impl PeerDeathScenario {
    /// A scenario closure for [`usipc_sim::Explorer::run`].
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        move |b: &mut SimBuilder| {
            let mut ids = SimIds::default();
            ids.sems.push(b.add_sem(0)); // server
            ids.sems.push(b.add_sem(0)); // client 0
            let ids = Arc::new(ids);
            let costs = SimCosts::from_machine(&MachineModel::explore());
            let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
            let detected = Arc::new(AtomicU64::new(0));

            let (ch, ids2) = (channel.clone(), Arc::clone(&ids));
            let poisoning = self.poisoning;
            b.spawn("server", move |sys| {
                let os = SimOs::new(sys, ids2, costs, false, 0);
                // Blocking receive (infallible BSW path), then die in the
                // dequeue->reply window.
                let _request = crate::protocol::bsw::receive(&ch, &os);
                if poisoning {
                    ch.tombstone_server(&os);
                }
                // MUTANT (poisoning == false): die silently. No flag, no
                // broadcast V — the client must deadlock somewhere in the
                // schedule space.
            });

            let (ch, ids2, saw) = (channel.clone(), Arc::clone(&ids), Arc::clone(&detected));
            b.spawn("client", move |sys| {
                let os = SimOs::new(sys, ids2, costs, false, 1);
                let srv = ch.receive_queue();
                assert!(srv.try_enqueue(&os, Message::echo(0, 7.0)));
                srv.wake_consumer(&os);
                // Poison-aware infinite wait: the Fig. 5 wait loop with a
                // poison check on every round and NO deadline — liveness
                // rests entirely on the tombstone's broadcast V.
                let rq = ch.reply_queue(0);
                loop {
                    if rq.try_dequeue(&os).is_some() {
                        unreachable!("server dies before replying");
                    }
                    if rq.is_poisoned() {
                        saw.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    rq.clear_awake(&os);
                    match rq.try_dequeue(&os) {
                        Some(_) => unreachable!("server dies before replying"),
                        None => {
                            if rq.is_poisoned() {
                                rq.set_awake(&os);
                                saw.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                            os.sem_p(rq.sem());
                            rq.set_awake(&os);
                        }
                    }
                }
            });

            let poisoning = self.poisoning;
            Box::new(move |_r: &SimReport| {
                if poisoning && detected.load(Ordering::Relaxed) != 1 {
                    return Err("death rites performed but client never saw the poison".into());
                }
                Ok(())
            })
        }
    }
}
