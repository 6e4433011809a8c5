//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record and notes, then, as the last line of standard output,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits 0
//! when every operation and correctness check passed, 1 when one failed, and 2
//! on a usage error or an ambient `MATCH_*` knob.

use perfbench::host::{ambient_knobs, host_record, pin_backend};
use perfbench::workloads::{self, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    let knobs = ambient_knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run: {} would change the workload; unset them",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    pin_backend();

    println!("host: {}", host_record());
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = workloads::run(&args.workload, args.seed, args.seconds, args.trace)
        .expect("workload name was validated");
    for note in &result.notes {
        println!("{note}");
    }
    let mut metrics = Vec::new();
    for m in &result.metrics {
        println!("{:<32} {:>20} {}", m.name, json_number(m.value), m.unit);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    let correct = result.failed == 0 && result.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
