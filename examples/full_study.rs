//! Run the full simulated six-year measurement study and print the paper's
//! headline artifacts: Table 1, Table 2, the Figure 1 aggregate series, and
//! the Juniper deep-dive (Figure 3 + the §4.1 transition analysis).
//!
//! ```sh
//! cargo run --release --example full_study           # default laptop scale
//! cargo run --release --example full_study -- 0.2    # smaller scale factor
//! ```

use weakkeys::{render_table2, run_pipeline, BatchMode, StudyConfig};
use wk_analysis::report::{render_series, render_table1, render_transitions};
use wk_analysis::{
    aggregate_series, dataset_totals, heartbleed_impact, vendor_series, vendor_transitions,
};
use wk_scan::VendorId;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let mut config = StudyConfig::default_scale();
    config.scale = scale;
    config.background_hosts = (config.background_hosts as f64 * scale) as usize;

    println!(
        "simulating 2010-07 .. 2016-04 at scale {scale} (seed {})...",
        config.seed
    );
    let results = run_pipeline(&config, BatchMode::Classic { threads: 1 }).expect("pipeline");
    let stats = results.batch_stats.as_ref().unwrap();
    println!(
        "batch GCD: {} moduli in {:?} (product tree {:?}, leaf phase {:?} with {:?} busy in leaf gcds), trees {} MiB\n",
        stats.input_count,
        stats.total_time(),
        stats.product_tree_time,
        stats.remainder_tree_time,
        stats.gcd_exec.busy_total(),
        stats.tree_bytes / (1 << 20),
    );

    println!("== Table 1: dataset totals ==");
    println!(
        "{}",
        render_table1(&dataset_totals(&results.dataset, results.vulnerable_set()))
    );

    println!("== Table 2: 2012 disclosure responses ==");
    println!("{}", render_table2());

    println!("== Figure 1: all hosts / vulnerable hosts over time ==");
    let fig1 = aggregate_series(&results.dataset, results.vulnerable_set());
    println!("{}", render_series(&fig1));

    println!("== Figure 3: Juniper ==");
    let juniper = vendor_series(
        &results.dataset,
        &results.labeling,
        results.vulnerable_set(),
        VendorId::Juniper,
    );
    println!("{}", render_series(&juniper));
    let hb = heartbleed_impact(&juniper);
    println!(
        "largest vulnerable drop: {} hosts, at Heartbleed boundary: {}",
        hb.largest_vulnerable_drop, hb.vulnerable_drop_at_heartbleed
    );
    let transitions = vendor_transitions(
        &results.dataset,
        &results.labeling,
        results.vulnerable_set(),
        VendorId::Juniper,
    );
    println!("{}", render_transitions("Juniper", &transitions));

    println!(
        "bit-error hits set aside: {}; MITM suspects: {}; certs labeled by prime extrapolation: {}",
        results.bit_error_hits.len(),
        results.mitm_suspects.len(),
        results.labeling.extrapolated_certs,
    );
}
