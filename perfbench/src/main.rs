//! End-to-end benchmark of the CLASH multi-query stream-join system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch5-sparse --seed 1 --seconds 28 --trace 0
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics: a
//! closed loop for throughput, an open loop at the workload's fixed rate
//! for latency, lag and lateness, set-up time, state and heap. The traced
//! run (`--trace 1`) repeats the closed loop with spans around every call
//! into a layer and prints the per-layer metrics. Both check the results
//! against a reference computed outside the timed window. The last line
//! of standard output is one JSON object with the verdict and metrics;
//! the lines before it (prefixed `#`) explain them.

mod alloc;
mod drive;
mod report;
mod run;
mod sink;
mod trace;
mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: clash-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n\
         workloads: {}",
        workload::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(name), Some(seed), Some(seconds), Some(traced)) = (name, seed, seconds, traced)
    else {
        usage()
    };
    let Some(spec) = workload::find(&name) else {
        usage()
    };
    let outcome = if traced {
        run::traced(spec, seed)
    } else {
        run::untraced(spec, seed, seconds)
    };
    match outcome {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
