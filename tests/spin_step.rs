//! The native multiprocessor spin step on real threads.
//!
//! `busy_wait`/`poll_pause` spin to the next boundary of a short step on a
//! shared clock and leave the re-check of the awaited word to the caller,
//! instead of spinning out the paper's fixed 25 µs delay. These tests pin
//! both halves of that: one step is far shorter than 25 µs but does run to
//! its boundary, and BSLS's `MAX_SPIN` steps still cover a server
//! turnaround, so a 1:1 echo almost never falls through to the semaphore.
//!
//! Both need a second core for the peer to run on while a task spins; on a
//! single core they skip with a note.

use std::sync::Mutex;
use std::time::Instant;
use usipc::{
    run_echo_server, Channel, ChannelConfig, NativeConfig, NativeOs, OsServices, WaitStrategy,
};

/// The tests time real threads; running them one at a time keeps one from
/// stealing the other's core.
static SERIAL: Mutex<()> = Mutex::new(());

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[test]
fn busy_wait_step_is_far_below_the_papers_25_us() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let os = NativeOs::new(NativeConfig::for_clients(1));
    if !os.effective_multiprocessor() {
        eprintln!(
            "skipped: {} core(s), busy_wait yields instead of spinning",
            cores()
        );
        return;
    }
    let t = os.task(0);
    let mut ns: Vec<u64> = (0..1000)
        .map(|_| {
            let start = Instant::now();
            t.busy_wait();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    assert!(
        median < 5_000,
        "median busy_wait step took {median} ns; the old clock-timed spin was 25 µs"
    );
    // Back-to-back steps each start just after a boundary and end on the
    // next, so a step that returns early (a bare burst of hints) shows here.
    assert!(
        median >= 1_500,
        "median busy_wait step took {median} ns; a step runs to the next 3 µs boundary"
    );
    assert_eq!(os.metrics().unwrap().task_snapshot(0).spin_iterations, 1000);
}

/// Total `P` commitments, on either side, over one 1:1 BSLS(50) echo of
/// `calls` calls.
fn bsls_echo_blocks(calls: u64) -> u64 {
    let strategy = WaitStrategy::Bsls { max_spin: 50 };
    let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    assert!(os.effective_multiprocessor());

    let server = {
        let (ch, task) = (ch.clone(), os.task(0));
        std::thread::spawn(move || run_echo_server(&ch, &task, strategy))
    };
    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, strategy);
    for i in 0..calls {
        assert_eq!(client.echo(i as f64), i as f64);
    }
    client.disconnect();
    assert_eq!(server.join().unwrap().processed, calls + 1);
    os.metrics().unwrap().aggregate(|_| true).blocks_entered
}

#[test]
fn bsls_echo_rarely_blocks_on_a_multiprocessor() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if cores() < 2 {
        eprintln!(
            "skipped: {} core, nothing runs the peer while we spin",
            cores()
        );
        return;
    }
    // Round trips include the disconnect. A neighbour that takes a core for
    // a while makes any spin budget fall through, so the best of three runs
    // is judged, as the pinned sem-op budget tests do.
    const CALLS: u64 = 20_000;
    let mut blocks = Vec::new();
    for _ in 0..3 {
        blocks.push(bsls_echo_blocks(CALLS));
        if blocks
            .last()
            .is_some_and(|&b| (b as f64) < 0.01 * (CALLS + 1) as f64)
        {
            return;
        }
    }
    panic!(
        "BSLS(50) blocked on {blocks:?} of {} round trips in 3 runs (limit 1%)",
        CALLS + 1
    );
}

#[test]
fn bsls_echo_hands_off_between_threads_sharing_a_cpu() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    if cores() < 2 {
        eprintln!("skipped: {} core, busy_wait already yields", cores());
        return;
    }
    // Both threads on one CPU while `busy_wait` still spins: a fresh
    // thread often lands on its spawner's CPU. A step that never offered
    // the CPU made every wait spin out its whole budget and block.
    const CALLS: u64 = 2_000;
    let strategy = WaitStrategy::Bsls { max_spin: 50 };
    let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    assert!(os.effective_multiprocessor());
    usipc::proc::pin_to_cpu(0).unwrap();
    let server = {
        let (ch, task) = (ch.clone(), os.task(0));
        std::thread::spawn(move || {
            usipc::proc::pin_to_cpu(0).unwrap();
            run_echo_server(&ch, &task, strategy)
        })
    };
    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, strategy);
    for i in 0..CALLS {
        assert_eq!(client.echo(i as f64), i as f64);
    }
    client.disconnect();
    assert_eq!(server.join().unwrap().processed, CALLS + 1);
    let blocks = os.metrics().unwrap().aggregate(|_| true).blocks_entered;
    assert!(
        (blocks as f64) < 0.01 * (CALLS + 1) as f64,
        "BSLS(50) on one CPU blocked {blocks} times in {} round trips",
        CALLS + 1
    );
}
