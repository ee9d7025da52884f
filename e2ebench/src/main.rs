//! `mind-e2ebench --workload <ingest|query_mixed|sim_paper> --seed <n>
//!  --seconds <s> --trace <0|1> [--node-bin <path>]`
//!
//! Run from the repository root (`e2ebench/run.sh` builds `mind-node` and
//! this binary first). Prints a human-readable report, then as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones). Exits
//! 1 when any answer is wrong, a row is lost or unreplicated, or the fleet
//! audit fails; exits 2, without a result, on bad arguments or a run that
//! errors, including a node that does not exit 0 after `Shutdown`.

use mind_e2ebench::report::{Report, PER_LAYER_SIM, PER_LAYER_TCP};
use mind_e2ebench::sim;
use mind_e2ebench::stats::RunEnv;
use mind_e2ebench::tcp::{self, TcpArgs};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory (inside the checkout) for node logs and span files.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut node_bin = PathBuf::from("target/release/mind-node");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val("--workload")?),
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                };
            }
            "--node-bin" => node_bin = PathBuf::from(val("--node-bin")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        node_bin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mind-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulated world reads the store backend from the environment;
    // measure the shipped default everywhere.
    std::env::remove_var("MIND_STORE");
    std::env::remove_var("MIND_SHARDS");
    let env = RunEnv::detect();
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let tcp_args = TcpArgs {
        seed: args.seed,
        seconds: args.seconds,
        node_bin: &args.node_bin,
        work: &work,
        trace: args.trace,
    };
    let (name, layer_names): (&'static str, _) = match args.workload.as_str() {
        "ingest" => ("ingest", PER_LAYER_TCP),
        "query_mixed" => ("query_mixed", PER_LAYER_TCP),
        "sim_paper" => ("sim_paper", PER_LAYER_SIM),
        other => {
            eprintln!("mind-e2ebench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report {
        workload: name,
        layer_names,
        ..Report::default()
    };
    let run = match name {
        "ingest" => tcp::ingest(&tcp_args, &mut report),
        "query_mixed" => tcp::query_mixed(&tcp_args, &mut report),
        _ => sim::sim_paper(args.seed, args.seconds, args.trace, &work, &mut report),
    };
    if let Err(e) = run {
        eprintln!("mind-e2ebench: {} failed: {e}", args.workload);
        return ExitCode::from(2);
    }
    // Empty once every cluster shut down cleanly; kept (with node logs)
    // otherwise.
    let _ = std::fs::remove_dir(&work);
    let unlisted = report.unlisted_layers();
    assert!(
        unlisted.is_empty(),
        "layer metrics missing from the vocabulary: {unlisted:?}"
    );
    print!("{}", report.render(&env, args.trace));
    println!("{}", report.json_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
