//! The paper's cost claims, asserted as exact counter arithmetic on the
//! deterministic simulator (and sanity-checked on real threads).
//!
//! §3.1: BSW costs "four system calls" per round trip — the client pays a
//! `V` (wake the server) and a `P` (sleep for the reply), the server pays
//! the mirror `P` and `V`. §2.1: BSS never enters the kernel at all. With
//! the metrics layer those are no longer derivations; they are counters
//! this test reads back.

use usipc::harness::{run_sim_experiment, Mechanism, SimExperiment};
use usipc::{NativeConfig, NativeOs, OsServices, WaitStrategy};
use usipc_sim::{MachineModel, PolicyKind};

const MSGS: u64 = 500;

fn sim_run(strategy: WaitStrategy) -> usipc::harness::SimExperimentResult {
    let exp = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(strategy),
    )
    .clients(1)
    .messages(MSGS);
    run_sim_experiment(&exp)
}

#[test]
fn bsw_uncontended_round_trip_is_exactly_four_semaphore_calls() {
    let r = sim_run(WaitStrategy::Bsw);
    // MSGS echoes plus the disconnect handshake, each a full round trip.
    let round_trips = MSGS + 1;
    let c = r.client_metrics;
    let s = r.server_metrics;
    // Client: one V to wake the server, one P to sleep for the reply.
    assert_eq!(c.sem_v, round_trips, "client V per round trip");
    assert_eq!(c.sem_p, round_trips, "client P per round trip");
    // Server: the mirror image.
    assert_eq!(s.sem_p, round_trips, "server P per round trip");
    assert_eq!(s.sem_v, round_trips, "server V per round trip");
    // The headline number: four semaphore system calls per round trip.
    assert_eq!(c.sem_ops() + s.sem_ops(), 4 * round_trips);
    // Fully blocking: the client slept for every reply, and with a single
    // client no producer ever raced the consumer into the stray-V path.
    assert_eq!(c.blocks_entered, round_trips);
    assert_eq!(c.stray_wakeups_absorbed + s.stray_wakeups_absorbed, 0);
}

#[test]
fn bss_never_enters_the_kernel() {
    let r = sim_run(WaitStrategy::Bss);
    let total = r.client_metrics.add(&r.server_metrics);
    assert_eq!(total.sem_ops(), 0, "BSS uses no semaphores");
    assert_eq!(total.blocks_entered, 0, "BSS never commits to sleep");
    // Spinning happened instead (uniprocessor busy_wait = yield syscalls,
    // counted as spin iterations).
    assert!(total.spin_iterations > 0, "BSS spins on empty queues");
}

#[test]
fn bss_never_enters_the_kernel_native() {
    // The same budget on real threads. On two or more cores `busy_wait`
    // yields once and spins to a clock boundary; either way BSS has no
    // semaphore to call.
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));

    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bss)
    });
    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, WaitStrategy::Bss);
    for i in 0..MSGS {
        assert_eq!(client.echo(i as f64), i as f64);
    }
    client.disconnect();
    assert_eq!(server.join().unwrap().processed, MSGS + 1);

    let total = os.metrics().unwrap().aggregate(|_| true);
    assert_eq!(total.sem_p, 0, "BSS never calls P");
    assert_eq!(total.sem_v, 0, "BSS never calls V");
    assert_eq!(total.blocks_entered, 0, "BSS never commits to sleep");
    assert_eq!(total.sem_kernel_waits + total.sem_kernel_wakes, 0);
}

#[test]
fn message_flow_counters_are_conserved() {
    let r = sim_run(WaitStrategy::Bsw);
    let round_trips = MSGS + 1;
    // Every request the client enqueued was dequeued by the server and
    // vice versa: 2 enqueues and 2 dequeues per round trip, split evenly.
    assert_eq!(r.client_metrics.enqueues, round_trips);
    assert_eq!(r.client_metrics.dequeues, round_trips);
    assert_eq!(r.server_metrics.enqueues, round_trips);
    assert_eq!(r.server_metrics.dequeues, round_trips);
    assert_eq!(r.server_metrics.requests_served, round_trips);
    // The latency sketch saw every client round trip, in virtual time.
    assert_eq!(r.client_latency.count, round_trips);
    assert!(r.client_latency.mean_us() > 0.0);
}

#[test]
fn bsls_blocks_rarely_in_its_operating_region() {
    let r = sim_run(WaitStrategy::Bsls { max_spin: 200 });
    let rate = r.client_metrics.block_rate();
    // Fig. 10's argument: with a sufficient spin budget the client almost
    // always falls through. The uncontended echo is the best case.
    assert!(
        rate < 0.5,
        "BSLS(200) client blocked {:.0}% of dequeues",
        rate * 100.0
    );
    // And strictly fewer semaphore calls than BSW's 4 per round trip.
    let per_rt =
        (r.client_metrics.sem_ops() + r.server_metrics.sem_ops()) as f64 / (MSGS + 1) as f64;
    assert!(
        per_rt < 4.0,
        "BSLS paid {per_rt:.2} sem calls per round trip"
    );
}

#[test]
fn native_server_run_reports_its_counters() {
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));

    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
    });

    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
    for i in 0..50 {
        assert_eq!(client.echo(i as f64), i as f64);
    }
    client.disconnect();
    let run = server.join().unwrap();

    assert_eq!(run.processed, 51);
    // The embedded snapshot is the server's own window: one request charge
    // and one dequeue per message, and (timing-dependent) some sem traffic.
    assert_eq!(run.metrics.requests_served, 51);
    assert_eq!(run.metrics.dequeues, 51);
    assert_eq!(run.metrics.enqueues, 51);
    assert!(
        run.metrics.sem_ops() <= 4 * 51,
        "bounded by the BSW worst case"
    );

    // The registry view agrees with the embedded snapshot.
    let reg = os.metrics().expect("for_clients enables collection");
    assert_eq!(reg.task_snapshot(0).requests_served, 51);
    // The client recorded a latency sample per call.
    assert_eq!(reg.task_latency(1).count, 51);
    assert!(client_os.metrics().is_some());
}

#[test]
fn disabling_metrics_yields_empty_snapshots() {
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1).without_metrics());

    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
    });

    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
    assert_eq!(client.echo(7.0), 7.0);
    client.disconnect();
    let run = server.join().unwrap();

    assert_eq!(run.processed, 2);
    assert_eq!(run.metrics, Default::default(), "no counters collected");
    assert!(os.metrics().is_none());
    assert!(client_os.metrics().is_none());
}
