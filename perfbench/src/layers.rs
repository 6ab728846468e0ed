//! Per-layer figures of a traced run, from its spans and counters.
//!
//! Counts come from the library's own `MetricsSnapshot` counters over the
//! measured window; times come from the spans the benchmark recorded
//! around each call into a layer. Every figure is normalised per completed
//! call unless its name says otherwise.

use crate::probe::{Kind, Span, NO_PARENT};
use crate::stats::quantile_sorted;
use crate::workload::Run;
use std::collections::HashMap;

/// Largest share by which the critical-path sum of a traced call may
/// differ from the call's measured time before the run fails.
pub const CLOSURE_MAX_ERR: f64 = 0.05;

/// One thread's spans inside the measured window.
struct Thread<'a> {
    is_server: bool,
    spans: Vec<&'a Span>,
}

/// (start, end) of every span of one kind on one semaphore, start-sorted.
type Intervals = HashMap<u32, Vec<(u64, u64)>>;

fn intervals(threads: &[Thread], kind: Kind, keep: impl Fn(&Thread) -> bool) -> Intervals {
    let mut map: Intervals = HashMap::new();
    for t in threads.iter().filter(|t| keep(t)) {
        for s in t.spans.iter().filter(|s| s.kind == kind) {
            map.entry(s.sem).or_default().push((s.start, s.end));
        }
    }
    for v in map.values_mut() {
        v.sort_unstable();
    }
    map
}

/// The wait on `sem` (from `waits`) that was in progress at `t`: the
/// last one to start at or before `t`, if it had not ended yet.
fn wait_at(waits: &Intervals, sem: u32, t: u64) -> Option<(u64, u64)> {
    let v = waits.get(&sem)?;
    let i = v.partition_point(|&(s, _)| s <= t);
    let w = *v.get(i.checked_sub(1)?)?;
    (w.1 > t).then_some(w)
}

/// The last `V` on `sem` (from `posts`) that started inside `[lo, hi)`.
fn post_in(posts: &Intervals, sem: u32, lo: u64, hi: u64) -> Option<(u64, u64)> {
    let v = posts.get(&sem)?;
    let i = v.partition_point(|&(s, _)| s < hi);
    let p = *v.get(i.checked_sub(1)?)?;
    (p.0 >= lo).then_some(p)
}

/// Mean per traced call of each critical-path segment.
#[derive(Debug, Default, Clone, Copy)]
pub struct Closure {
    pub calls: u64,
    pub call_ns: f64,
    pub client_self_ns: f64,
    pub client_os_ns: f64,
    pub spin_ns: f64,
    pub wake_in_ns: f64,
    pub server_self_ns: f64,
    pub handler_ns: f64,
    pub wake_out_ns: f64,
    /// Calls whose reply woke the client from a semaphore wait.
    pub woken_frac: f64,
}

impl Closure {
    pub fn sum_ns(&self) -> f64 {
        self.client_self_ns
            + self.client_os_ns
            + self.spin_ns
            + self.wake_in_ns
            + self.server_self_ns
            + self.handler_ns
            + self.wake_out_ns
    }

    /// |critical-path sum − measured call time| as a share of the latter.
    pub fn err_frac(&self) -> f64 {
        if self.call_ns == 0.0 {
            return 0.0;
        }
        (self.sum_ns() - self.call_ns).abs() / self.call_ns
    }
}

/// The critical path of every traced call.
///
/// A call that ended by being woken splits into: client self time, the
/// wake of the server (the client's `V` to the return of the server's
/// `P`), the server's work up to its reply `V` (handler and server self
/// time), the wake of the client (that `V` to the return of the client's
/// `P`), and the client's other OS calls and spins. Each segment comes
/// from the layer that owns it, so the sum checks the decomposition
/// against the call's own clock: the client's few instructions between its
/// `V` and its `P` run while the server wakes and are counted twice. A
/// call that never slept (a spin caught the reply, or the reply was
/// already banked) is its own client-side spans.
fn closure(threads: &[Thread], handler_of: &HashMap<u64, u64>) -> Closure {
    let server_waits = intervals(threads, Kind::SemP, |t| t.is_server);
    let server_posts = intervals(threads, Kind::SemV, |t| t.is_server);
    let mut c = Closure::default();
    let mut woken = 0u64;
    for t in threads.iter().filter(|t| !t.is_server) {
        let mut i = 0;
        while i < t.spans.len() {
            let call = t.spans[i];
            i += 1;
            if call.kind != Kind::Call {
                continue;
            }
            let first = i;
            while i < t.spans.len()
                && t.spans[i].parent != NO_PARENT
                && t.spans[i].kind != Kind::Call
            {
                i += 1;
            }
            let kids = &t.spans[first..i];
            let os_ns: u64 = kids.iter().map(|s| s.dur()).sum();
            let spin_ns: u64 = kids
                .iter()
                .filter(|s| s.kind.is_spin())
                .map(|s| s.dur())
                .sum();
            c.calls += 1;
            c.call_ns += call.dur() as f64;
            c.client_self_ns += call.dur().saturating_sub(os_ns) as f64;
            c.spin_ns += spin_ns as f64;
            let mut other_os = os_ns - spin_ns;
            // The wait the reply ended, and the server V that ended it.
            let reply_wait = kids
                .iter()
                .rev()
                .find(|s| s.kind == Kind::SemP)
                .and_then(|p| post_in(&server_posts, p.sem, p.start, p.end).map(|v| (*p, v)));
            if let Some((p, v_out)) = reply_wait {
                woken += 1;
                other_os -= p.dur();
                c.wake_out_ns += (p.end - v_out.0) as f64;
                // Did this call's own V wake the server for it?
                let wake_in = kids.iter().find_map(|v| {
                    if v.kind != Kind::SemV || v.start >= p.start {
                        return None;
                    }
                    let w = wait_at(&server_waits, v.sem, v.start)?;
                    (w.1 <= v_out.0).then_some((v, w.1))
                });
                let served_from = match wake_in {
                    Some((v, woke)) => {
                        other_os -= v.dur();
                        c.wake_in_ns += (woke - v.start) as f64;
                        woke
                    }
                    None => p.start,
                };
                let server_ns = v_out.0.saturating_sub(served_from);
                let handler = handler_of
                    .get(&call.req)
                    .copied()
                    .unwrap_or(0)
                    .min(server_ns);
                c.handler_ns += handler as f64;
                c.server_self_ns += (server_ns - handler) as f64;
            }
            c.client_os_ns += other_os as f64;
        }
    }
    if c.calls > 0 {
        let n = c.calls as f64;
        for f in [
            &mut c.call_ns,
            &mut c.client_self_ns,
            &mut c.client_os_ns,
            &mut c.spin_ns,
            &mut c.wake_in_ns,
            &mut c.server_self_ns,
            &mut c.handler_ns,
            &mut c.wake_out_ns,
        ] {
            *f /= n;
        }
        c.woken_frac = woken as f64 / n;
    }
    c
}

/// Per-layer metrics of a traced run, as (name, value, unit), plus the
/// closure breakdown.
pub fn per_layer(run: &Run) -> (Vec<(String, f64, &'static str)>, Closure) {
    let (w0, w1) = run.window;
    let threads: Vec<Thread> = run
        .threads
        .iter()
        .map(|(_, is_server, spans)| Thread {
            is_server: *is_server,
            spans: spans
                .iter()
                .filter(|s| s.start >= w0 && s.end <= w1)
                .collect(),
        })
        .collect();
    let calls = run.calls.max(1) as f64;
    // Total duration of the spans `pred` keeps, on the server only or on
    // every thread.
    let total = |server_only: bool, pred: &dyn Fn(&Span) -> bool| -> f64 {
        threads
            .iter()
            .filter(|t| t.is_server || !server_only)
            .flat_map(|t| t.spans.iter())
            .filter(|s| pred(s))
            .fold(0.0, |acc, s| acc + s.dur() as f64)
    };
    let handler_of: HashMap<u64, u64> = threads
        .iter()
        .filter(|t| t.is_server)
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.kind == Kind::Handler)
        .map(|s| (s.req, s.dur()))
        .collect();

    // Wake: every V that found the consumer already waiting on that
    // semaphore, to the return of that consumer's P.
    let all_waits = intervals(&threads, Kind::SemP, |_| true);
    let mut wakes: Vec<u64> = threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.kind == Kind::SemV)
        .filter_map(|v| wait_at(&all_waits, v.sem, v.start).map(|w| w.1 - v.start))
        .collect();
    wakes.sort_unstable();
    let wake_q = |q: f64| quantile_sorted(&wakes, q).map_or(0.0, |ns| ns as f64 / 1e3);

    let closure = closure(&threads, &handler_of);

    // Server wall time over the window, split into waits, handler and
    // the protocol's own work.
    let server_wall: f64 = threads
        .iter()
        .filter(|t| t.is_server)
        .map(|t| match (t.spans.first(), t.spans.last()) {
            (Some(a), Some(b)) => (b.end - a.start) as f64,
            _ => 0.0,
        })
        .sum();
    let server_waits = total(true, &|s| s.kind.is_wait());
    let server_os = total(true, &|s| {
        !matches!(s.kind, Kind::Handler | Kind::Call | Kind::TelemetryRead)
    });
    let handler_total: f64 = handler_of.values().map(|&d| d as f64).sum();

    let c = &run.counters;
    let per = |n: u64| n as f64 / calls;
    let mut tel = run.tel_read_ns.clone();
    tel.sort_unstable();
    let tel_reads = run.tel_read_ns.len() as f64;

    let metrics: Vec<(&str, f64, &'static str)> = vec![
        (
            "native.spin_ns_per_call",
            total(false, &|s| s.kind.is_spin()) / calls,
            "ns",
        ),
        ("native.spins_per_call", per(c.spin_iterations), "count"),
        ("native.yields_per_call", per(c.yields), "count"),
        (
            "native.full_backoffs_per_call",
            per(c.queue_full_backoffs),
            "count",
        ),
        ("sem.p_per_call", per(c.sem_p), "count"),
        ("sem.v_per_call", per(c.sem_v), "count"),
        (
            "sem.p_wait_ns_per_call",
            total(false, &|s| s.kind == Kind::SemP) / calls,
            "ns",
        ),
        (
            "sem.v_ns_per_call",
            total(false, &|s| s.kind == Kind::SemV) / calls,
            "ns",
        ),
        (
            "sem.kernel_waits_per_call",
            per(c.sem_kernel_waits),
            "count",
        ),
        (
            "sem.kernel_wakes_per_call",
            per(c.sem_kernel_wakes),
            "count",
        ),
        (
            "sem.stray_wakeups_per_call",
            per(c.stray_wakeups_absorbed),
            "count",
        ),
        ("wake.v_to_run_p50_us", wake_q(0.5), "us"),
        ("wake.v_to_run_p90_us", wake_q(0.9), "us"),
        (
            "protocol.client_self_ns_per_call",
            closure.client_self_ns,
            "ns",
        ),
        (
            "protocol.server_self_ns_per_call",
            (server_wall - server_os - handler_total).max(0.0) / calls,
            "ns",
        ),
        ("protocol.queue_ops_per_call", per(c.queue_ops), "count"),
        ("protocol.tas_per_call", per(c.tas_ops), "count"),
        ("protocol.polls_per_call", per(c.poll_checks), "count"),
        ("protocol.blocks_per_call", per(c.blocks_entered), "count"),
        ("server.handler_ns_per_call", handler_total / calls, "ns"),
        (
            "server.idle_frac",
            if server_wall > 0.0 {
                server_waits / server_wall
            } else {
                0.0
            },
            "frac",
        ),
        (
            "waitset.doorbell_v_per_call",
            per(c.doorbells_rung),
            "count",
        ),
        (
            "waitset.coalesced_per_call",
            per(c.doorbells_coalesced),
            "count",
        ),
        ("waitset.wakes_per_call", per(c.waitset_wakes), "count"),
        ("waitset.heartbeat_timeouts", c.timed_out as f64, "count"),
        (
            "telemetry.read_ns_p50",
            quantile_sorted(&tel, 0.5).map_or(0.0, |v| v as f64),
            "ns",
        ),
        (
            "telemetry.read_fail_frac",
            if tel_reads > 0.0 {
                run.tel_fails as f64 / tel_reads
            } else {
                0.0
            },
            "frac",
        ),
        ("closure.err_frac", closure.err_frac(), "frac"),
    ];
    (
        metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect(),
        closure,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, sem: u32, start: u64, end: u64, req: u64, parent: u32) -> Span {
        Span {
            kind,
            sem,
            start,
            end,
            req,
            parent,
        }
    }

    /// A hand-built BSW round trip: the client V's the sleeping server,
    /// sleeps, and is woken by the server's reply V.
    fn bsw_round_trip() -> Run {
        let client = vec![
            span(Kind::Call, 0, 100, 1_100, 7, NO_PARENT),
            span(Kind::SemV, 0, 150, 250, 7, 0),
            span(Kind::SemP, 1, 300, 1_050, 7, 0),
        ];
        let server = vec![
            span(Kind::SemP, 0, 0, 400, 0, NO_PARENT),
            span(Kind::Handler, 0, 500, 600, 7, NO_PARENT),
            span(Kind::SemV, 1, 800, 850, 0, NO_PARENT),
            span(Kind::SemP, 0, 900, 1_200, 0, NO_PARENT),
        ];
        Run {
            calls: 1,
            window: (0, 1_200),
            threads: vec![
                ("client0".into(), false, client),
                ("server".into(), true, server),
            ],
            ..Run::default()
        }
    }

    #[test]
    fn closure_splits_a_blocking_round_trip() {
        let (m, c) = per_layer(&bsw_round_trip());
        assert_eq!(c.calls, 1);
        assert_eq!(c.call_ns, 1_000.0);
        assert_eq!(c.client_self_ns, 150.0, "1000 - V 100 - P 750");
        assert_eq!(
            c.wake_in_ns, 250.0,
            "client V at 150 -> server P returns 400"
        );
        assert_eq!(c.handler_ns, 100.0);
        assert_eq!(
            c.server_self_ns, 300.0,
            "400 -> reply V at 800, minus handler"
        );
        assert_eq!(
            c.wake_out_ns, 250.0,
            "reply V at 800 -> client P returns 1050"
        );
        assert_eq!(c.client_os_ns, 0.0, "V and P are on the wake path");
        // The client's 50 ns between its V and its P overlap the wake.
        assert_eq!(c.sum_ns(), 1_050.0);
        assert!((c.err_frac() - 0.05).abs() < 1e-12);
        let get = |n: &str| m.iter().find(|(k, _, _)| k == n).unwrap().1;
        assert_eq!(
            get("wake.v_to_run_p50_us"),
            0.0,
            "fewer than 10 samples beyond"
        );
        assert_eq!(get("server.handler_ns_per_call"), 100.0);
        assert_eq!(get("sem.v_ns_per_call"), 150.0);
    }

    #[test]
    fn a_call_that_never_slept_closes_exactly() {
        let client = vec![
            span(Kind::Call, 0, 0, 1_000, 1, NO_PARENT),
            span(Kind::PollPause, 0, 100, 900, 1, 0),
        ];
        let run = Run {
            calls: 1,
            window: (0, 1_000),
            threads: vec![
                ("client0".into(), false, client),
                ("server".into(), true, vec![]),
            ],
            ..Run::default()
        };
        let (_, c) = per_layer(&run);
        assert_eq!((c.spin_ns, c.client_self_ns), (800.0, 200.0));
        assert_eq!(c.err_frac(), 0.0);
        assert_eq!(c.woken_frac, 0.0);
    }

    #[test]
    fn wake_latency_matches_v_to_the_waiting_p() {
        let mut waits = Intervals::new();
        waits.insert(3, vec![(0, 100), (200, 400)]);
        assert_eq!(wait_at(&waits, 3, 250), Some((200, 400)));
        assert_eq!(
            wait_at(&waits, 3, 150),
            None,
            "nobody waiting: credit banked"
        );
        assert_eq!(wait_at(&waits, 4, 50), None, "other semaphore");
        let mut posts = Intervals::new();
        posts.insert(3, vec![(10, 20), (50, 60)]);
        assert_eq!(post_in(&posts, 3, 0, 100), Some((50, 60)));
        assert_eq!(post_in(&posts, 3, 30, 40), None);
    }
}
