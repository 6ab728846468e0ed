//! `perfbench`: the repository's layer-resolved IPC benchmark.
//!
//! ```text
//! perfbench --workload <pingpong_spin|pingpong_block|fanin_paced>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric of the workload,
//! measured with no tracing code in the path. With `--trace 1` it prints
//! the per-layer metrics: an untraced and a traced run of the same
//! workload, the Table 1 primitives, and the closure of each traced round
//! trip. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod host;
mod layers;
mod primitives;
mod probe;
mod stats;
mod workload;

use host::{cpu_ticks, fingerprint_json, json_str, steal_frac};
use probe::{Probe, Traced};
use stats::{mean, median, quantile_sorted};
use std::io::Write;
use usipc::NativeTask;
use workload::{Run, Schedule, Wedged, Workload};

/// Fresh worlds set up per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Longest the set-up repetitions may take before they count as wedged.
const SETUP_GRACE_NS: u64 = 60_000_000_000;
/// Longest traced phase: spans stay in memory until the run ends.
const MAX_TRACED_NS: u64 = 2_000_000_000;
/// Measured time of each fresh world in a `--trace 0` run; `--seconds`
/// of measured time is split into worlds this long.
const WORLD_NS: u64 = 250_000_000;
/// BSW's budget of semaphore operations per round trip (two `P`, two `V`).
const BSW_SEM_OPS_PER_CALL: u64 = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line's metrics and verdict, filled in as the run goes.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    diag: Vec<(String, f64)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Books a run's calls and failures, and checks its replies.
    fn account(&mut self, workload: Workload, run: &Run, label: &str) {
        self.attempted += run.calls.max(run.scheduled);
        let unfinished = run.scheduled.saturating_sub(run.calls);
        self.failed += run.wrong + run.over_deadline + unfinished;
        self.check(run.wrong == 0, || {
            format!("{label}: {} wrong replies", run.wrong)
        });
        self.check(run.over_deadline == 0, || {
            format!("{label}: {} calls missed the deadline", run.over_deadline)
        });
        self.check(unfinished == 0, || {
            format!("{label}: {unfinished} scheduled calls never completed")
        });
        if workload == Workload::PingpongBlock {
            // Window edges can split one call's operations across the cut.
            let ops = run.counters.sem_p + run.counters.sem_v;
            self.check(ops <= BSW_SEM_OPS_PER_CALL * (run.calls + 1), || {
                format!(
                    "{label}: {ops} P/V over {} calls exceeds {BSW_SEM_OPS_PER_CALL} per call",
                    run.calls
                )
            });
        }
    }

    fn print(&self) {
        let correct = self.problems.is_empty()
            && self.failed == 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        for p in &self.problems {
            println!("# FAIL {p}");
        }
        for (n, v, u) in &self.metrics {
            println!("# {n:<36} {v:>14.4} {u}");
        }
        let diag: Vec<String> = self
            .diag
            .iter()
            .map(|(n, v)| format!("{}: {}", json_str(n), finite(*v)))
            .collect();
        println!("# diag {{{}}}", diag.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    finite(*v),
                    json_str(u)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number for `v` (non-finite values become 0 and fail the run).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(f64::NAN, |v| v as f64 / 1e3)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Runs `workload` with probe `P`, or reports the wedge and exits: a
/// hung task is named and its calls counted, never waited on forever.
fn run_or_exit<P: Probe + 'static>(report: &mut Report, a: &Args, measure_ns: u64) -> Run {
    match workload::run::<P>(a.workload, Schedule::new(a.seed), measure_ns) {
        Ok(run) => run,
        Err(Wedged {
            tasks,
            attempted,
            unfinished,
        }) => {
            report.attempted += attempted;
            report.failed += unfinished;
            report.problems.push(format!(
                "wedged: {} still running; {unfinished} calls unfinished",
                tasks.join(", ")
            ));
            report.print();
            std::process::exit(3);
        }
    }
}

/// End-to-end metrics: set-up repetitions, then `--seconds` of untraced
/// calls over fresh worlds.
fn end_to_end(report: &mut Report, a: &Args) {
    let (w, sched) = (a.workload, Schedule::new(a.seed));
    let setter = std::thread::spawn(move || {
        (0..SETUP_REPS)
            .map(|_| workload::setup_once(w, sched))
            .collect::<Vec<f64>>()
    });
    let setups = match workload::join_all(
        vec![("setup".into(), setter)],
        host::now_ns() + SETUP_GRACE_NS,
    ) {
        Ok(mut v) => v.pop().expect("one set-up thread"),
        Err(tasks) => {
            report
                .problems
                .push(format!("wedged: {}", tasks.join(", ")));
            report.print();
            std::process::exit(3);
        }
    };
    // The measured time is split over fresh worlds and each figure is the
    // median over worlds: one unlucky placement of the threads, or one VM
    // stall, moves one vote of many.
    let runs: Vec<Run> = (0..a.seconds * 1_000_000_000 / WORLD_NS)
        .map(|i| {
            let run = run_or_exit::<NativeTask>(report, a, WORLD_NS);
            report.account(a.workload, &run, &format!("world {i}"));
            run
        })
        .collect();
    let per_world: Vec<Vec<u64>> = runs.iter().map(|r| sorted(&r.lat_ns)).collect();
    let world_q = |q: f64| {
        median(
            &per_world
                .iter()
                .map(|l| us(quantile_sorted(l, q)))
                .collect::<Vec<_>>(),
        )
    };
    let over_worlds = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let lat = sorted(
        &runs
            .iter()
            .flat_map(|r| r.lat_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    report.check(
        per_world.iter().all(|l| quantile_sorted(l, 0.9).is_some()),
        || "a world has too few calls for a p90".to_string(),
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("call_p50_us", world_q(0.5), "us");
    report.metric("call_p90_us", world_q(0.9), "us");
    report.metric(
        "calls_per_s",
        over_worlds(&|r| r.calls as f64 * 1e9 / (r.window.1 - r.window.0) as f64),
        "1/s",
    );
    report.metric(
        "cpu_us_per_call",
        over_worlds(&|r| r.cpu_ns as f64 / 1e3 / r.calls.max(1) as f64),
        "us",
    );
    report.metric(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );
    report.diag = vec![
        ("samples".into(), lat.len() as f64),
        ("worlds".into(), runs.len() as f64),
        ("run_p50_us".into(), finite(us(quantile_sorted(&lat, 0.5)))),
        ("run_p90_us".into(), finite(us(quantile_sorted(&lat, 0.9)))),
        (
            "call_p99_us".into(),
            finite(us(quantile_sorted(&lat, 0.99))),
        ),
        (
            "call_p999_us".into(),
            finite(us(quantile_sorted(&lat, 0.999))),
        ),
        (
            "setup_min_s".into(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ];
    if !a.workload.closed_loop() {
        let late = sorted(
            &runs
                .iter()
                .flat_map(|r| r.gen_late_ns.iter().copied())
                .collect::<Vec<_>>(),
        );
        for (n, q) in [
            ("late_p50_us", 0.5),
            ("late_p90_us", 0.9),
            ("late_p99_us", 0.99),
        ] {
            report
                .diag
                .push((n.into(), finite(us(quantile_sorted(&late, q)))));
        }
    }
}

/// Writes the traced run's spans, one per line, for tools outside the
/// benchmark: `thread name start_ns end_ns req parent sem`.
fn write_spans(workload: Workload, run: &Run) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "thread\tname\tstart_ns\tend_ns\treq\tparent\tsem")?;
    for (thread, _, spans) in &run.threads {
        for s in spans
            .iter()
            .filter(|s| s.start >= run.window.0 && s.end <= run.window.1)
        {
            let parent = if s.parent == probe::NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{thread}\t{}\t{}\t{}\t{}\t{parent}\t{}",
                s.kind.name(),
                s.start,
                s.end,
                s.req,
                s.sem
            )?;
        }
    }
    w.flush()?;
    Ok(path.display().to_string())
}

/// Per-layer metrics: an untraced run as the overhead baseline, a traced
/// run for the layers, then the primitives.
fn per_layer(report: &mut Report, a: &Args) {
    let half = a.seconds * 500_000_000;
    let plain = run_or_exit::<NativeTask>(report, a, half);
    report.account(a.workload, &plain, "untraced run");
    let traced = run_or_exit::<Traced>(report, a, half.min(MAX_TRACED_NS));
    report.account(a.workload, &traced, "traced run");

    let (layers, closure) = layers::per_layer(&traced);
    for (n, v, u) in layers {
        report.metrics.push((n, v, u));
    }
    report.check(closure.err_frac() <= layers::CLOSURE_MAX_ERR, || {
        format!(
            "closure error {:.4} exceeds {}",
            closure.err_frac(),
            layers::CLOSURE_MAX_ERR
        )
    });
    report.metric(
        "trace.overhead_frac",
        mean(&traced.lat_ns) / mean(&plain.lat_ns) - 1.0,
        "frac",
    );
    for (n, v, u) in primitives::measure() {
        report.metric(n, v, u);
    }

    let lat = sorted(&plain.lat_ns);
    report.metric("call_p99_us", finite(us(quantile_sorted(&lat, 0.99))), "us");
    report.metric(
        "call_p999_us",
        finite(us(quantile_sorted(&lat, 0.999))),
        "us",
    );
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("failed_frac", failed_frac, "frac");
    let (late_p50, late_p99, achieved) = if a.workload.closed_loop() {
        // A closed loop sends each call the moment the last one returns.
        (0.0, 0.0, 1.0)
    } else {
        let late = sorted(&plain.gen_late_ns);
        let wall = (plain.window.1 - plain.window.0) as f64 / 1e9;
        (
            finite(us(quantile_sorted(&late, 0.5))),
            finite(us(quantile_sorted(&late, 0.99))),
            plain.calls as f64 / wall / workload::FANIN_RATE,
        )
    };
    report.metric("loadgen.late_p50_us", late_p50, "us");
    report.metric("loadgen.late_p99_us", late_p99, "us");
    report.metric("loadgen.achieved_frac", achieved, "frac");

    report.diag = vec![
        ("traced_calls".into(), closure.calls as f64),
        ("closure.call_ns".into(), closure.call_ns),
        ("closure.sum_ns".into(), closure.sum_ns()),
        ("closure.client_self_ns".into(), closure.client_self_ns),
        ("closure.client_os_ns".into(), closure.client_os_ns),
        ("closure.spin_ns".into(), closure.spin_ns),
        ("closure.wake_in_ns".into(), closure.wake_in_ns),
        ("closure.server_self_ns".into(), closure.server_self_ns),
        ("closure.handler_ns".into(), closure.handler_ns),
        ("closure.wake_out_ns".into(), closure.wake_out_ns),
        ("closure.woken_frac".into(), closure.woken_frac),
    ];
    match write_spans(a.workload, &traced) {
        Ok(path) => println!("# spans written to {path}"),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            std::process::exit(2);
        }
    };
    println!("# host {}", fingerprint_json());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let ticks = cpu_ticks();
    let mut report = Report {
        metrics: Vec::new(),
        diag: Vec::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    if a.trace {
        per_layer(&mut report, &a);
    } else {
        end_to_end(&mut report, &a);
    }
    let steal = steal_frac(ticks, cpu_ticks());
    if a.trace {
        report.metric("host.steal_frac", steal, "frac");
    } else {
        report.diag.push(("host.steal_frac".into(), steal));
    }
    report.print();
}
