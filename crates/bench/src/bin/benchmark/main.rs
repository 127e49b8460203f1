//! `rdht-benchmark`: the repo's end-to-end benchmark of the live cluster.
//!
//! ```text
//! rdht-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rdht-benchmark [--seed <n>] [--seconds <s>] [--traced]   # all five workloads
//! rdht-benchmark compare <setA.jsonl> <setB.jsonl>
//! rdht-benchmark --smoke
//! ```
//!
//! See README.md beside this file for the workloads, the metric glossary,
//! the harness rules and the measurements behind them.

mod compare;
mod guard;
mod json;
mod keys;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use rdht_net::TraceSink;

use json::Json;
use report::{MetricSpec, Values, END_TO_END, PER_LAYER};
use run::RunPlan;
use trace::ReplayShape;
use workload::{Workload, WORKLOADS};

/// Discarded before the measured window opens.
const WARMUP: Duration = Duration::from_secs(2);

/// Deployments per end-to-end run, each in a process of its own; `setup_s`
/// is their median. The last one is the deployment that gets measured.
const SETUPS: usize = 5;

/// More than this share of failed operations fails the run.
const MAX_FAILED_FRAC: f64 = 0.01;

/// Operations the layer replay drives through each layer.
const REPLAY_OPS: usize = 2_000;

/// How a run is sized. `--smoke` shrinks everything so that the whole
/// harness can be exercised in seconds; its numbers mean nothing.
#[derive(Clone, Copy)]
struct Sizing {
    warmup: Duration,
    window: Duration,
}

impl Sizing {
    fn plan<'a>(
        self,
        workload: &'static Workload,
        seed: u64,
        trace: Option<TraceSink>,
        scratch: &'a Path,
    ) -> RunPlan<'a> {
        RunPlan {
            workload,
            seed,
            warmup: self.warmup,
            window: self.window,
            trace,
            scratch,
        }
    }
}

const SMOKE: Sizing = Sizing {
    warmup: Duration::from_millis(100),
    window: Duration::from_millis(200),
};
const SMOKE_REPLAY_OPS: usize = 100;

/// One measured pass over a workload.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

impl Pass {
    fn to_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            report::values_json(&self.values)
        )
    }

    fn from_line(line: &str) -> Result<Pass, String> {
        let parsed = json::parse(line)?;
        let count = |key: &str| parsed.get(key).and_then(Json::number).map(|n| n as u64);
        let values = parsed
            .get("values")
            .and_then(Json::object)
            .ok_or("no values")?;
        Ok(Pass {
            correct: parsed.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted").ok_or("no attempted")?,
            failed: count("failed").ok_or("no failed")?,
            values: values
                .iter()
                .filter_map(|(name, value)| Some((name.clone(), value.number()?)))
                .collect(),
        })
    }
}

/// Where chrome traces go: `<target dir>/benchmark/`, beside the profile
/// directory the executable lives in.
fn trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    // A test executable lives one level further down, in `deps/`: step out
    // of it, or the traces land where cargo links the bin named `benchmark`.
    let dir = exe
        .parent()
        .map(|dir| match dir.parent() {
            Some(profile) if dir.ends_with("deps") => profile,
            _ => dir,
        })
        .and_then(Path::parent)
        .ok_or("own executable has no target directory")?
        .join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Deploys, preloads, drives and checks one workload, printing what
/// happened. With `traced`, peers and clients record spans, the per-phase
/// medians join the values and the spans are written out as a chrome trace.
fn measure(
    workload: &'static Workload,
    seed: u64,
    sizing: Sizing,
    traced: bool,
    scratch: &Path,
) -> Result<Pass, String> {
    let sink = traced.then(TraceSink::new);
    let outcome = run::run(&sizing.plan(workload, seed, sink.clone(), scratch))?;
    let mut values = report::values_of(&outcome);
    let pass_name = if traced { "traced" } else { "untraced" };
    println!(
        "workload {} ({pass_name} pass, seed {seed}): {}",
        workload.name, workload.why
    );
    if let Some(sink) = sink {
        values.extend(trace::span_values(&sink.events()));
        let path = trace_dir()?.join(format!("trace-{}-cluster.json", workload.name));
        sink.write_to(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {} ({} spans)", path.display(), sink.len());
    }
    let failed = outcome.failed();
    let pass = Pass {
        correct: outcome.event_errors.is_empty()
            && outcome.tally.attempted > 0
            && failed as f64 <= MAX_FAILED_FRAC * outcome.tally.attempted as f64,
        attempted: outcome.tally.attempted,
        failed,
        values,
    };

    print!("{}", report::table(&END_TO_END, &pass.values));
    println!(
        "  tails (no bound): retrieve p99 {:.1} us, insert p99 {:.1} us; samples: {} retrieves, {} inserts",
        pass.values["retrieve_p99_us"],
        pass.values["insert_p99_us"],
        pass.values["bench.retrieve_samples"],
        pass.values["bench.insert_samples"]
    );
    let completions: Vec<u64> = outcome
        .tally
        .slices
        .iter()
        .map(|slice| slice.completed)
        .collect();
    println!("  completions per slice: {completions:?}");
    if outcome.slice_spread_frac() > run::DISTURBED_SLICE_SPREAD {
        println!(
            "  disturbed: true (slice spread {:.3} > {}): something else was busy; the per-slice \
             medians resist that, a mean would not",
            outcome.slice_spread_frac(),
            run::DISTURBED_SLICE_SPREAD
        );
    }
    println!("  failed operations: {} of {}", pass.failed, pass.attempted);
    for (kind, (count, first)) in &outcome.tally.failures {
        println!("    {kind}: {count} (first: {first})");
    }
    for error in &outcome.event_errors {
        println!("  membership event failed: {error}");
    }
    Ok(pass)
}

/// The per-layer half of the traced pass: replays the operation stream
/// through each layer, prints the budget against the measured medians, and
/// merges counts (untraced pass), span medians (traced pass) and replay
/// times into one set of per-layer values.
fn layer_report(
    workload: &'static Workload,
    seed: u64,
    untraced: &Pass,
    traced: &Pass,
    replay_ops: usize,
    scratch: &Path,
) -> Result<Values, String> {
    let value = |pass: &Pass, name: &str| pass.values.get(name).copied().unwrap_or(0.0);
    let shape = ReplayShape {
        // An insert is one timestamp round trip plus one per peer reached.
        fanout: (((value(untraced, "net.client.msgs_per_insert") - 2.0) / 2.0).round() as usize)
            .clamp(1, workload::NUM_REPLICAS),
        probes: (value(untraced, "core.replicas_probed_per_retrieve").round() as usize)
            .clamp(1, workload::NUM_REPLICAS),
    };
    let replay = trace::replay(workload, seed, shape, replay_ops, scratch)?;
    let path = trace_dir()?.join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, &replay.chrome_trace)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let (budget, retrieve_gap, insert_gap) = trace::budget_table(
        &replay.budget,
        value(untraced, "retrieve_p50_us"),
        value(untraced, "insert_p50_us"),
    );
    println!(
        "latency budget of {} (layer replay against the untraced medians):",
        workload.name
    );
    print!("{budget}");
    println!("  wrote {}", path.display());

    // Counts describe the untraced run; span medians come from the traced
    // one; the replay supplies the layer times.
    let mut values = traced.values.clone();
    values.extend(untraced.values.clone());
    values.extend(replay.values);
    let untraced_rate = value(untraced, "throughput_ops_s");
    let traced_rate = value(traced, "throughput_ops_s");
    let overhead = if untraced_rate > 0.0 {
        1.0 - traced_rate / untraced_rate
    } else {
        0.0
    };
    values.insert("bench.untraced_throughput_ops_s".into(), untraced_rate);
    values.insert("bench.traced_throughput_ops_s".into(), traced_rate);
    values.insert("bench.trace_overhead_frac".into(), overhead);
    values.insert("bench.budget_retrieve_gap_frac".into(), retrieve_gap);
    values.insert("bench.budget_insert_gap_frac".into(), insert_gap);
    // A layer that does no work on this workload reads zero.
    for spec in &PER_LAYER {
        values.entry(spec.name.to_string()).or_insert(0.0);
    }
    println!("per-layer metrics of {}:", workload.name);
    print!("{}", report::table(&PER_LAYER, &values));
    Ok(values)
}

/// Runs this executable again with `args`, echoes what it printed, and
/// returns whether it succeeded and its last line. A fresh process per
/// measurement: back-to-back clusters in one process inherit each other's
/// heap and lingering threads.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("{line}");
    }
    Ok((output.status.success(), last))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    phase: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        phase: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--traced" => args.trace = true,
            "--phase" => args.phase = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

impl Args {
    fn sizing(&self, window_share: f64) -> Sizing {
        Sizing {
            warmup: WARMUP,
            window: Duration::from_secs_f64(self.seconds * window_share),
        }
    }

    fn child_args(&self, workload: &str, extra: &[&str]) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
        ];
        args.extend(extra.iter().map(|arg| arg.to_string()));
        args
    }
}

fn result_of(pass: &Pass, specs: &[MetricSpec], values: &Values) -> String {
    report::result_line(pass.correct, pass.attempted, pass.failed, specs, values)
}

/// `--workload <name> ... --trace <0|1>`: one workload in this process (or,
/// traced, in two children of it), the driver's result line last.
fn run_workload(args: &Args, workload: &'static Workload) -> Result<bool, String> {
    guard::require_release_build()?;
    println!("pinned_cpu {}", guard::pin_to_one_cpu()?);
    let scratch = guard::ScratchDir::create()?;
    match (args.phase.as_deref(), args.trace) {
        (None, false) => {
            // Set-up is timed in fresh processes too: a second cluster in one
            // process starts on the first one's heap.
            let mut setups = Vec::new();
            for _ in 1..SETUPS {
                let (ok, line) = child(&args.child_args(workload.name, &["--phase", "setup"]))?;
                let seconds = line.parse::<f64>().ok().filter(|_| ok);
                setups.push(seconds.ok_or_else(|| format!("a set-up pass failed: {line}"))?);
            }
            let mut pass = measure(workload, args.seed, args.sizing(1.0), false, scratch.path())?;
            setups.push(pass.values["setup_s"]);
            println!("  set-up passes: {setups:?}");
            pass.values
                .insert("setup_s".into(), stats::median_or_zero(&setups));
            println!("{}", result_of(&pass, &END_TO_END, &pass.values));
            Ok(pass.correct)
        }
        (Some("setup"), _) => {
            let plan = args
                .sizing(1.0)
                .plan(workload, args.seed, None, scratch.path());
            println!("{}", run::setup_only(&plan)?);
            Ok(true)
        }
        // One half of a traced run: a child of the arm below, with half the
        // window.
        (Some(phase), _) => {
            let sizing = args.sizing(0.5);
            let pass = measure(
                workload,
                args.seed,
                sizing,
                phase == "traced",
                scratch.path(),
            )?;
            println!("{}", pass.to_line());
            Ok(pass.correct)
        }
        (None, true) => {
            let mut passes = Vec::new();
            for phase in ["untraced", "traced"] {
                let (ok, line) = child(&args.child_args(workload.name, &["--phase", phase]))?;
                if !ok {
                    return Err(format!("the {phase} pass failed: {line}"));
                }
                passes.push(
                    Pass::from_line(&line).map_err(|e| format!("{phase} pass: {e}: {line}"))?,
                );
            }
            let (untraced, traced) = (&passes[0], &passes[1]);
            let values = layer_report(
                workload,
                args.seed,
                untraced,
                traced,
                REPLAY_OPS,
                scratch.path(),
            )?;
            let both = Pass {
                correct: untraced.correct && traced.correct,
                attempted: untraced.attempted + traced.attempted,
                failed: untraced.failed + traced.failed,
                values: Values::new(),
            };
            println!("{}", result_of(&both, &PER_LAYER, &values));
            Ok(both.correct)
        }
    }
}

/// No `--workload`: every workload in turn, each in a fresh child, one JSON
/// line per workload (what `compare` reads) between the human tables.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in &WORKLOADS {
        let traces: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
        for trace in traces {
            let (ok, line) = child(&args.child_args(workload.name, &["--trace", trace]))?;
            all_ok &= ok;
            match line.strip_prefix('{') {
                Some(rest) if ok => println!(
                    "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {trace}, {rest}",
                    workload.name, args.seed
                ),
                _ => println!("{line}"),
            }
        }
    }
    Ok(all_ok)
}

/// `--smoke`: all five workloads and the traced pass with tiny windows, in
/// this process, so the harness cannot rot unnoticed. It is what the unit
/// test drives, and the one mode that lets a debug build through.
fn smoke() -> Result<bool, String> {
    println!("pinned_cpu {}", guard::pin_to_one_cpu()?);
    let scratch = guard::ScratchDir::create()?;
    let mut all_ok = true;
    for workload in &WORKLOADS {
        let untraced = measure(workload, 1, SMOKE, false, scratch.path())?;
        let traced = measure(workload, 1, SMOKE, true, scratch.path())?;
        let values = layer_report(
            workload,
            1,
            &untraced,
            &traced,
            SMOKE_REPLAY_OPS,
            scratch.path(),
        )?;
        let has = |values: &Values, spec: &MetricSpec| {
            values.get(spec.name).is_some_and(|v| v.is_finite())
        };
        let complete = END_TO_END.iter().all(|spec| has(&untraced.values, spec))
            && PER_LAYER.iter().all(|spec| has(&values, spec));
        if !complete {
            println!("smoke: {} is missing a metric", workload.name);
        }
        all_ok &= complete && untraced.correct && traced.correct;
    }
    Ok(all_ok)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    match raw {
        [command, a, b] if command == "compare" => compare::main(a, b),
        [flag] if flag == "--smoke" => smoke(),
        _ => {
            let args = parse_args(raw)?;
            match &args.workload {
                Some(name) => {
                    let workload =
                        workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                    run_workload(&args, workload)
                }
                None => run_all(&args),
            }
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            println!("rdht-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_every_workload_and_the_traced_pass() {
        match smoke() {
            Ok(ok) => assert!(ok, "the smoke run reported a failure; see its output"),
            // Where the regime is unavailable the harness refuses to run;
            // that is its contract, not a test failure.
            Err(reason)
                if reason.contains("sched_setaffinity") || reason.contains("Cpus_allowed_list") =>
            {
                println!("skipped: {reason}");
            }
            Err(reason) => panic!("smoke run failed: {reason}"),
        }
    }

    #[test]
    fn pass_lines_round_trip_between_parent_and_child() {
        let mut values = Values::new();
        values.insert("throughput_ops_s".to_string(), 1234.5);
        let pass = Pass {
            correct: true,
            attempted: 10,
            failed: 1,
            values,
        };
        let read = Pass::from_line(&pass.to_line()).expect("round trip");
        assert!(read.correct);
        assert_eq!((read.attempted, read.failed), (10, 1));
        assert_eq!(read.values["throughput_ops_s"], 1234.5);
    }

    #[test]
    fn benchmark_json_matches_the_metric_and_workload_tables() {
        let manifest = json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let entries = |key: &str| {
            manifest
                .get(key)
                .and_then(Json::array)
                .expect("array")
                .to_vec()
        };
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::text).map(str::to_string);

        let workloads = entries("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name").as_deref(), Some(workload.name));
            assert_eq!(text(entry, "why").as_deref(), Some(workload.why));
        }
        let end_to_end = entries("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, spec) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name").as_deref(), Some(spec.name));
            assert_eq!(text(entry, "unit").as_deref(), Some(spec.unit));
            assert_eq!(text(entry, "better").as_deref(), Some(spec.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Json::number), Some(spec.bound));
        }
        let per_layer = entries("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, spec) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name").as_deref(), Some(spec.name));
            assert_eq!(text(entry, "unit").as_deref(), Some(spec.unit));
            assert_eq!(text(entry, "better").as_deref(), Some(spec.better.as_str()));
        }
    }
}
