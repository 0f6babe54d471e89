//! The full study, end to end: a 45-machine deployment traced for a
//! simulated hour, every table and figure rendered.
//!
//! ```text
//! cargo run --release --example deployment_study            # evaluation preset
//! cargo run --release --example deployment_study -- smoke   # tiny preset
//! cargo run --release --example deployment_study -- seed=7  # other seed
//! ```

use nt_study::{report, Study, StudyConfig};

fn main() {
    let mut seed = 1;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "smoke" {
            smoke = true;
        } else if let Some(s) = arg.strip_prefix("seed=") {
            seed = s.parse().expect("seed must be an integer");
        }
    }
    let config = if smoke {
        StudyConfig::smoke_test(seed)
    } else {
        StudyConfig::evaluation(seed)
    };
    eprintln!(
        "running {} machines for {} simulated seconds ...",
        config.machines.len(),
        config.duration.as_secs()
    );
    let started = std::time::Instant::now();
    let data = Study::run(&config).expect("study runs");
    eprintln!(
        "collected {} records ({:.1} MB compressed) in {:.1}s wall time\n",
        data.total_records,
        data.stored_bytes as f64 / 1.0e6,
        started.elapsed().as_secs_f64()
    );
    print!("{}", report::full_report(&data));
}
