//! Fault injection against the real protocols, both backends.
//!
//! The native tests kill actual threads mid-protocol (a panic unwinding
//! through a [`DeathWatch`]/[`ServerDeathWatch`] guard) and assert the
//! survivors' view: `PeerDead` for a client whose server died between
//! dequeue and reply, a server that outlives a dead client and poisons
//! *only* that client's reply queue, and a poisoned channel rejecting the
//! next call without entering the kernel (pinned by the metrics layer).
//!
//! The simulated tests hand the same fault points to the schedule-space
//! explorer: every kill site of every protocol, over every schedule at
//! the bounded depth, must end in an error verdict — never a deadlock —
//! and the poison-never-set mutant must yield a replayable deadlock
//! counterexample, proving the explorer can actually see the failure the
//! poisoning protocol exists to prevent.

use std::sync::Arc;
use std::time::Duration;
use usipc::harness::{
    run_thread_echo, CallPath, ClientFaultOutcome, Mechanism, ThreadEcho, ThreadEchoResult,
};
use usipc::scenarios::{FaultScenario, PeerDeathScenario, NO_VICTIM};
use usipc::{FaultPlan, IpcError, WaitStrategy};
use usipc_sim::{Explorer, Outcome};

const HEARTBEAT: Duration = Duration::from_millis(30);
const DEADLINE: Duration = Duration::from_millis(500);

/// A BSW echo barrage on the deadline path with `plan` armed.
fn run_faulted(clients: usize, msgs: u64, plan: FaultPlan) -> ThreadEchoResult {
    run_thread_echo(&ThreadEcho {
        call_path: CallPath::Deadline {
            heartbeat: HEARTBEAT,
            deadline: DEADLINE,
            faults: Some(Arc::new(plan)),
        },
        ..ThreadEcho::new(Mechanism::UserLevel(WaitStrategy::Bsw), clients, msgs)
    })
}

/// The Fig. 5 nightmare: the server dequeues a request and dies before
/// replying. The message is gone — no retry can recover it — so the
/// client must get `PeerDead`, not hang and not `Timeout`-forever.
#[test]
fn client_sees_peer_dead_when_server_dies_between_dequeue_and_reply() {
    // Server fault points: (before receive, after dequeue) per message.
    // at_op = 1 is the first "between dequeue and reply" window.
    let r = run_faulted(1, 4, FaultPlan::kill(0, 1));

    assert!(r.server.is_err(), "server was killed: {:?}", r.server);
    assert!(
        r.receive_poisoned,
        "tombstone must poison the receive queue"
    );
    assert!(r.reply_poisoned[0], "tombstone must poison the reply queue");
    match &r.clients[0] {
        ClientFaultOutcome::Failed { error, .. } => {
            assert_eq!(*error, IpcError::PeerDead, "client must learn of the death");
        }
        other => panic!("client should have failed with PeerDead, got {other:?}"),
    }
}

/// One of eight clients dies mid-run. The server must keep serving the
/// other seven to completion, reap exactly the dead one, and poison only
/// its reply queue.
#[test]
fn server_survives_dead_client_and_poisons_only_its_queue() {
    let victim_client = 3u32; // task number 1 + 3
    let r = run_faulted(8, 6, FaultPlan::kill(1 + victim_client, 2));

    let run = r.server.expect("server must survive a client death");
    assert!(run.reaped >= 1, "the dead client must be reaped");
    assert!(!r.receive_poisoned, "shared receive queue must stay usable");
    for c in 0..8u32 {
        if c == victim_client {
            assert!(
                matches!(r.clients[c as usize], ClientFaultOutcome::Killed),
                "victim should have died: {:?}",
                r.clients[c as usize]
            );
            assert!(
                r.reply_poisoned[c as usize],
                "victim's queue must be poisoned"
            );
        } else {
            assert!(
                matches!(r.clients[c as usize], ClientFaultOutcome::Completed),
                "survivor {c} must complete: {:?}",
                r.clients[c as usize]
            );
            assert!(
                !r.reply_poisoned[c as usize],
                "survivor {c}'s queue must not be poisoned"
            );
        }
    }
}

/// Poisoning fails *fast*: a call on a poisoned channel is rejected at
/// the entry check, before any semaphore operation or enqueue. The
/// metrics layer pins "no kernel entry" exactly.
#[test]
fn poisoned_channel_rejects_calls_without_entering_the_kernel() {
    use usipc::{Channel, ChannelConfig, Message, NativeConfig, NativeOs};

    let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let client_os = os.task(1);
    let ep = ch.client(&client_os, 0, WaitStrategy::Bsw);

    ch.reply_queue(0).poison(&client_os);

    let reg = os.metrics().expect("native harness os carries metrics");
    let before = reg.task_snapshot(1);
    let got = ep.call_deadline(Message::echo(0, 1.0), Duration::from_secs(5));
    let after = reg.task_snapshot(1);

    assert_eq!(got, Err(IpcError::Poisoned));
    assert_eq!(after.sem_p, before.sem_p, "no P on a poisoned call");
    assert_eq!(after.sem_v, before.sem_v, "no V on a poisoned call");
    assert_eq!(
        after.enqueues, before.enqueues,
        "no enqueue on a poisoned call"
    );
    assert_eq!(
        after.dequeues, before.dequeues,
        "no dequeue on a poisoned call"
    );
}

/// Every protocol, a sweep of kill sites, every schedule at the bounded
/// depth: no kill may deadlock the survivors. The explorer's invariant
/// layer flags Deadlock / TimeLimit / TaskPanicked automatically, so a
/// clean report *is* the no-deadlock proof over this space.
#[test]
fn explorer_no_kill_site_deadlocks_any_protocol() {
    let strategies = [
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 2 },
        WaitStrategy::HandoffBswy,
    ];
    for strategy in strategies {
        // Server kill sites 0..4 and client kill sites 0..2 cover the
        // receive window, the dequeue->reply window and the call entry.
        for (victim, at_op) in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)] {
            let sc = FaultScenario {
                strategy,
                n_clients: 1,
                msgs: 2,
                victim,
                at_op,
            };
            let r = Explorer::dfs(5)
                .machine(sc.machine())
                .max_schedules(40_000)
                .run(sc.builder());
            assert!(
                r.ok(),
                "{strategy:?} kill(victim={victim}, at_op={at_op}) violated: {}",
                r.summary()
            );
        }
    }
}

/// The fault-free baseline of the sweep: with no kill the same scenario
/// must answer every request under every schedule.
#[test]
fn explorer_fault_free_baseline_answers_everything() {
    let sc = FaultScenario {
        strategy: WaitStrategy::Bsw,
        n_clients: 1,
        msgs: 2,
        victim: NO_VICTIM,
        at_op: 0,
    };
    let r = Explorer::dfs(5).max_schedules(40_000).run(sc.builder());
    assert!(r.ok(), "{}", r.summary());
}

/// Death rites on: every schedule detects the death. Death rites off (the
/// poison-never-set mutant): the explorer must produce a deadlock
/// counterexample — the client parked forever on its reply semaphore —
/// and the counterexample must replay deterministically.
#[test]
fn poison_never_set_mutant_deadlocks_with_replayable_counterexample() {
    let good = Explorer::dfs(6).run(PeerDeathScenario { poisoning: true }.builder());
    assert!(
        good.ok(),
        "death rites must rescue the client: {}",
        good.summary()
    );

    let mutant = PeerDeathScenario { poisoning: false };
    let ex = Explorer::dfs(6);
    let r = ex.run(mutant.builder());
    assert!(
        r.violations > 0,
        "explorer failed to find the orphaned-client deadlock: {}",
        r.summary()
    );
    let c = &r.counterexamples[0];
    let decisions = usipc_sim::parse_decisions(&c.decision_string()).expect("printable");
    let (sim, verdict) = ex.replay(&decisions, mutant.builder());
    assert!(
        matches!(sim.outcome, Outcome::Deadlock(_)),
        "replay must reproduce the deadlock, got {:?}",
        sim.outcome
    );
    assert!(verdict.is_err());
}
