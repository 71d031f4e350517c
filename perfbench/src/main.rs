//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! lrm-perfbench --workload <identify|codec|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Stdout carries the environment, remarks and a table of every metric
//! with unit and direction; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The full record
//! (environment, metrics with directions, and the spans of a traced
//! run) is written to `perfbench/out/`.

use std::process::ExitCode;
use std::time::Instant;

use lrm_bench::json::Json;
use lrm_datasets::SizeClass;
use lrm_perfbench::{metrics, run, Opts, Workload, FIG12_PAPER};

const USAGE: &str =
    "usage: lrm-perfbench --workload <identify|codec|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String], started: Instant) -> Result<(Workload, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: SizeClass::Small,
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args, started) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(workload, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("lrm-perfbench {}: {e}", workload.name());
            return ExitCode::from(1);
        }
    };

    println!("env {}", metrics::one_line(&outcome.env));
    for note in &outcome.notes {
        println!("{note}");
    }
    let kind = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("{} {kind} metrics:", workload.name());
    print!("{}", metrics::render_table(&outcome.metrics));
    if opts.trace && workload == Workload::Identify {
        for (model, paper) in FIG12_PAPER {
            if let Some(m) = outcome
                .metrics
                .iter()
                .find(|m| m.name == format!("fig12.overhead.{model}"))
            {
                println!(
                    "fig12 {model}: encode {:.1}x ZFP(16) here, {paper}x in the paper",
                    m.value
                );
            }
        }
    }

    let record = Json::Obj(vec![
        ("env".into(), outcome.env.clone()),
        ("metrics".into(), metrics::to_json(&outcome.metrics)),
        (
            "attempted".into(),
            Json::Num(outcome.tally.attempted as f64),
        ),
        ("failed".into(), Json::Num(outcome.tally.failed as f64)),
        ("trace".into(), outcome.tracer.to_json()),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, record.pretty()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }

    println!(
        "{}",
        metrics::result_line(
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
