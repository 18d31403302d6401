//! Produces Perfetto-loadable traces of one Levenshtein instance on
//! both platform presets, so the schedule structure of the two
//! platforms can be compared side by side in the timeline viewer.
//!
//! ```sh
//! cargo run --release --example trace_viewer [n]
//! # then open hetero_high.trace.json / hetero_low.trace.json at
//! # https://ui.perfetto.dev (or chrome://tracing)
//! ```
//!
//! See docs/OBSERVABILITY.md for the trace model (tracks, counter
//! series, `/metrics` families) and EXPERIMENTS.md for how these traces relate to the
//! paper's figures.

use lddp::platforms;
use lddp::problems::LevenshteinKernel;
use lddp::trace::chrome;
use lddp::trace::live::LiveRegistry;
use lddp::workloads::random_seq;
use lddp::Framework;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let kernel = LevenshteinKernel::new(random_seq(n, 4, 1), random_seq(n, 4, 2));

    for (label, platform) in [
        ("hetero_high", platforms::hetero_high()),
        ("hetero_low", platforms::hetero_low()),
    ] {
        let fw = Framework::new(platform).with_io_bytes(2 * n, 8);
        let reg = LiveRegistry::with_flight_capacity(usize::MAX);
        let solution = fw.solve_traced(&kernel, None, &reg).expect("solve");
        let data = reg.flight().snapshot_since(f64::NEG_INFINITY);

        let trace_path = format!("{label}.trace.json");
        std::fs::write(&trace_path, chrome::to_chrome_json(&data)).expect("write trace");
        let metrics_path = format!("{label}.metrics.prom");
        std::fs::write(&metrics_path, reg.to_prometheus()).expect("write metrics");

        println!(
            "{label}: {:.3} ms virtual, t_switch={} t_share={}, {} phases",
            solution.total_s * 1e3,
            solution.params.t_switch,
            solution.params.t_share,
            solution.phases.len(),
        );
        for p in &solution.phases {
            println!(
                "  {:?} waves {}..{}: {:.3} ms wall, cpu {:.3} ms, gpu {:.3} ms, copy {:.3} ms",
                p.kind,
                p.waves.start,
                p.waves.end,
                p.wall_s * 1e3,
                p.cpu_busy_s * 1e3,
                p.gpu_busy_s * 1e3,
                p.copy_s * 1e3,
            );
        }
        println!("  -> {trace_path}, {metrics_path}");
    }
    println!("\nopen the .trace.json files at https://ui.perfetto.dev");
}
