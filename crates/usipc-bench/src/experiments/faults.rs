//! `faults`: what robustness costs when nothing goes wrong, and proof
//! that something going wrong never deadlocks.
//!
//! Two halves:
//!
//! * **Fault-free overhead** — every protocol's echo barrage twice on
//!   real threads: once through the infallible classic surface, once
//!   through `call_deadline` + the resilient heartbeat server. The runs
//!   are interleaved and each path keeps its min-of-N p50 (exact, from
//!   the raw round-trip samples, not the log₂ histogram, whose bucket
//!   edges turn a few percent into 100 %), so the difference is the
//!   robustness layer's tax, not scheduler noise. CI gates it per
//!   protocol class (job `faults`): within 5% for the
//!   pure user-space fast paths (BSS, BSLS), within one log₂ histogram
//!   bucket plus a sem-ops/RT bound for BSW (its timed-futex cost is
//!   real but sub-bucket), within two buckets for the regime-bimodal
//!   yield-hinting protocols — the rationale is worked through in
//!   EXPERIMENTS.md.
//! * **No-deadlock proof** — the schedule-space explorer sweeps kill
//!   sites over all five protocols' *fallible* paths (every schedule at
//!   the bounded depth must end in success or a clean
//!   `PeerDead`/`Timeout`/`Poisoned`, never a deadlock), and the
//!   poison-never-set mutant must yield a replayable deadlock
//!   counterexample — evidence the explorer can actually see the failure
//!   poisoning prevents.
//!
//! Results are spliced into `BENCH_protocols.json` as a `"faults"`
//! section, next to the baseline the overhead is measured against.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use usipc::harness::{run_thread_echo, CallPath, ClientFaultOutcome, Mechanism, ThreadEcho};
use usipc::scenarios::{FaultScenario, PeerDeathScenario};
use usipc::{FaultPlan, WaitStrategy};
use usipc_sim::Explorer;

/// Interleaved repetitions per path; each path keeps its best p50.
const REPS: usize = 3;
/// Resilient-server heartbeat. Plenty for a fault-free run: the server
/// only ever wakes on it after the last disconnect race, if at all.
const HEARTBEAT: Duration = Duration::from_millis(25);
/// Per-call deadline. Never expires in a healthy run.
const DEADLINE: Duration = Duration::from_secs(5);
/// `MAX_SPIN` for BSLS, matching the `bench` baseline.
const BSLS_MAX_SPIN: u32 = 50;

struct OverheadRow {
    name: &'static str,
    infallible_p50_us: f64,
    deadline_p50_us: f64,
    overhead_pct: f64,
    infallible_sem_ops_per_rt: f64,
    deadline_sem_ops_per_rt: f64,
}

fn protocols() -> [(&'static str, WaitStrategy); 5] {
    [
        ("BSS", WaitStrategy::Bss),
        ("BSW", WaitStrategy::Bsw),
        ("BSWY", WaitStrategy::Bswy),
        (
            "BSLS",
            WaitStrategy::Bsls {
                max_spin: BSLS_MAX_SPIN,
            },
        ),
        ("HANDOFF", WaitStrategy::HandoffBswy),
    ]
}

/// Exact median of one run's raw round-trip samples in µs; infinite (never
/// the minimum) for an empty set.
fn p50_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    super::bench::nearest_rank_us(&sorted, 0.50)
}

fn measure_overhead(name: &'static str, strategy: WaitStrategy, msgs: u64) -> OverheadRow {
    let mut inf_p50 = f64::INFINITY;
    let mut dl_p50 = f64::INFINITY;
    let mut inf_sem = 0.0;
    let mut dl_sem = 0.0;
    for _ in 0..REPS {
        let infallible = ThreadEcho::new(Mechanism::UserLevel(strategy), 1, msgs);
        let a = run_thread_echo(&infallible);
        let b = run_thread_echo(&ThreadEcho {
            call_path: CallPath::Deadline {
                heartbeat: HEARTBEAT,
                deadline: DEADLINE,
                faults: None,
            },
            ..infallible
        });
        assert!(
            b.clients
                .iter()
                .all(|c| *c == ClientFaultOutcome::Completed),
            "{name}: fault-free deadline run failed: {:?}",
            b.clients
        );
        let rt = (msgs + 1) as f64; // echoes + the disconnect
        let p = p50_us(&a.client_samples);
        if p < inf_p50 {
            inf_p50 = p;
            inf_sem = a.server_metrics.add(&a.client_metrics).sem_ops() as f64 / rt;
        }
        let p = p50_us(&b.client_samples);
        if p < dl_p50 {
            dl_p50 = p;
            dl_sem = b.server_metrics.add(&b.client_metrics).sem_ops() as f64 / rt;
        }
    }
    OverheadRow {
        name,
        infallible_p50_us: inf_p50,
        deadline_p50_us: dl_p50,
        overhead_pct: (dl_p50 - inf_p50) / inf_p50 * 100.0,
        infallible_sem_ops_per_rt: inf_sem,
        deadline_sem_ops_per_rt: dl_sem,
    }
}

struct SweepResult {
    kill_sites: u64,
    schedules: u64,
    deadlocks: u64,
    mutant_counterexample: Option<String>,
    mutant_schedules: u64,
}

/// The bounded no-deadlock sweep: a representative kill at the server's
/// dequeue→reply window and at the client's call entry, for every
/// protocol, over every schedule at the DFS depth. The exhaustive
/// site-by-site sweep lives in `tests/fault_injection.rs`; this is the
/// artifact-producing summary CI archives.
fn explorer_sweep(depth: usize) -> SweepResult {
    let mut out = SweepResult {
        kill_sites: 0,
        schedules: 0,
        deadlocks: 0,
        mutant_counterexample: None,
        mutant_schedules: 0,
    };
    for (_, strategy) in protocols() {
        for (victim, at_op) in [(0u32, 1u64), (1, 0)] {
            let sc = FaultScenario {
                strategy,
                n_clients: 1,
                msgs: 2,
                victim,
                at_op,
            };
            let r = Explorer::dfs(depth)
                .machine(sc.machine())
                .max_schedules(40_000)
                .run(sc.builder());
            out.kill_sites += 1;
            out.schedules += r.schedules;
            out.deadlocks += r.violations;
        }
    }
    // The mutant: death rites skipped, so the orphaned client must
    // deadlock somewhere — and the explorer must find and replay it.
    let mutant = PeerDeathScenario { poisoning: false };
    let r = Explorer::dfs(depth + 1).run(mutant.builder());
    out.mutant_schedules = r.schedules;
    if let Some(c) = r.counterexamples.first() {
        out.mutant_counterexample = Some(c.decision_string());
    }
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn faults_json(msgs: u64, rows: &[OverheadRow], sweep: &SweepResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("    \"clients\": 1,\n");
    s.push_str(&format!("    \"msgs_per_client\": {msgs},\n"));
    s.push_str(&format!("    \"reps\": {REPS},\n"));
    s.push_str("    \"protocols\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("      {\n");
        s.push_str(&format!("        \"name\": \"{}\",\n", r.name));
        s.push_str(&format!(
            "        \"infallible_p50_us\": {},\n",
            num(r.infallible_p50_us)
        ));
        s.push_str(&format!(
            "        \"deadline_p50_us\": {},\n",
            num(r.deadline_p50_us)
        ));
        s.push_str(&format!(
            "        \"overhead_pct\": {},\n",
            num(r.overhead_pct)
        ));
        s.push_str(&format!(
            "        \"infallible_sem_ops_per_rt\": {},\n",
            num(r.infallible_sem_ops_per_rt)
        ));
        s.push_str(&format!(
            "        \"deadline_sem_ops_per_rt\": {}\n",
            num(r.deadline_sem_ops_per_rt)
        ));
        s.push_str(if i + 1 == rows.len() {
            "      }\n"
        } else {
            "      },\n"
        });
    }
    s.push_str("    ],\n");
    s.push_str("    \"explorer\": {\n");
    s.push_str(&format!(
        "      \"kill_sites_checked\": {},\n",
        sweep.kill_sites
    ));
    s.push_str(&format!("      \"schedules\": {},\n", sweep.schedules));
    s.push_str(&format!("      \"deadlocks\": {},\n", sweep.deadlocks));
    s.push_str(&format!(
        "      \"mutant_schedules\": {},\n",
        sweep.mutant_schedules
    ));
    s.push_str(&format!(
        "      \"mutant_counterexample\": {}\n",
        match &sweep.mutant_counterexample {
            Some(d) => format!("\"{d}\""),
            None => "null".to_string(),
        }
    ));
    s.push_str("    }\n");
    s.push_str("  }");
    s
}

/// Splices (or replaces) a `"faults"` key into the `bench` experiment's
/// `BENCH_protocols.json`. String surgery, matched to our own writers'
/// formats — the workspace is dependency-free, so there is no JSON
/// parser to reach for.
fn splice_faults(orig: &str, faults: &str) -> String {
    let base = match orig.find(",\n  \"faults\":") {
        // A previous faults section: everything before it is the baseline
        // document minus its closing brace.
        Some(i) => orig[..i].to_string(),
        None => {
            let t = orig.trim_end();
            match t.strip_suffix('}') {
                Some(body) => body.trim_end().to_string(),
                None => t.to_string(), // unrecognized; append anyway
            }
        }
    };
    format!("{base},\n  \"faults\": {faults}\n}}\n")
}

pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    let msgs = opts.msgs_per_client;
    let rows: Vec<OverheadRow> = protocols()
        .iter()
        .map(|&(name, strategy)| measure_overhead(name, strategy, msgs))
        .collect();
    let sweep = explorer_sweep(opts.explore_depth.min(5));

    let mut table = Table::new(
        "fault-free overhead: call_deadline + resilient server vs the infallible path",
        "protocol#",
        "mixed",
        vec![
            "inf_p50_us".into(),
            "dl_p50_us".into(),
            "overhead_%".into(),
            "inf_sem/rt".into(),
            "dl_sem/rt".into(),
        ],
    );
    for (i, r) in rows.iter().enumerate() {
        table.push_row(
            i as f64,
            vec![
                r.infallible_p50_us,
                r.deadline_p50_us,
                r.overhead_pct,
                r.infallible_sem_ops_per_rt,
                r.deadline_sem_ops_per_rt,
            ],
        );
    }

    let mut notes: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}{}: infallible p50 {:.2} µs, deadline p50 {:.2} µs ({:+.1}%), \
                 sem ops/RT {:.2} → {:.2}",
                if r.overhead_pct > 5.0 { "! " } else { "" },
                r.name,
                r.infallible_p50_us,
                r.deadline_p50_us,
                r.overhead_pct,
                r.infallible_sem_ops_per_rt,
                r.deadline_sem_ops_per_rt,
            )
        })
        .collect();
    notes.push(format!(
        "explorer: {} kill sites over 5 protocols, {} schedules, {} deadlocks",
        sweep.kill_sites, sweep.schedules, sweep.deadlocks
    ));
    notes.push(match &sweep.mutant_counterexample {
        Some(d) => format!(
            "poison-never-set mutant: deadlock counterexample found in {} schedules \
             [replay decisions={d}]",
            sweep.mutant_schedules
        ),
        None => format!(
            "! poison-never-set mutant survived {} schedules — the proof has no teeth",
            sweep.mutant_schedules
        ),
    });

    let dir = opts.bench_dir.unwrap_or_else(|| PathBuf::from("results"));
    let path = dir.join("BENCH_protocols.json");
    let baseline = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        // `bench` hasn't run into this directory yet: a minimal document
        // the splice can close.
        "{\n  \"schema\": \"usipc-bench-protocols/v5\",\n  \"backend\": \"native\"\n}\n".into()
    });
    let json = splice_faults(&baseline, &faults_json(msgs, &rows, &sweep));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => notes.push(format!("→ {} (faults section)", path.display())),
        Err(e) => notes.push(format!("! BENCH_protocols.json write failed: {e}")),
    }

    // One worked fault, recorded: the server killed between dequeue and
    // reply under tracing, so the kill → detection → poison → PeerDead
    // sequence is inspectable in Perfetto (EXPERIMENTS.md walks it).
    let ft = run_thread_echo(&ThreadEcho {
        trace_capacity: Some(16 * 1024),
        call_path: CallPath::Deadline {
            heartbeat: Duration::from_millis(30),
            deadline: Duration::from_millis(500),
            faults: Some(Arc::new(FaultPlan::kill(0, 1))),
        },
        ..ThreadEcho::new(Mechanism::UserLevel(WaitStrategy::Bsw), 1, 4)
    });
    let tpath = dir.join("trace_fault_peerdeath.trace.json");
    match ft
        .trace
        .as_ref()
        .ok_or_else(|| std::io::Error::other("tracing was enabled but no trace came back"))
        .and_then(|t| std::fs::write(&tpath, t.to_chrome_json()))
    {
        Ok(()) => notes.push(format!(
            "→ {} (peer-death timeline: server killed mid-reply, poisoned={}, client saw {:?})",
            tpath.display(),
            ft.reply_poisoned[0],
            ft.clients[0],
        )),
        Err(e) => notes.push(format!("! peer-death trace write failed: {e}")),
    }

    ExperimentOutput {
        id: "faults",
        tables: vec![table],
        notes,
    }
}
