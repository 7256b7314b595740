//! Runs every table/figure/ablation binary in sequence with default
//! (quick) settings, forwarding any extra flags to each.
//!
//! ```text
//! cargo run -p fedsz-bench --bin all            # quick pass
//! cargo run -p fedsz-bench --bin all -- --scale 0.2
//! ```

use std::process::Command;

const BINARIES: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation_sz2",
    "ablation_shuffle",
    "ablation_threshold",
    "ablation_composition",
    "hetero_links",
];

fn main() {
    let extra: Vec<String> = std::env::args().skip(1).collect();
    let self_path = std::env::current_exe().expect("current exe path");
    let bin_dir = self_path.parent().expect("exe has a parent directory");
    let mut failures = Vec::new();
    for name in BINARIES {
        let path = bin_dir.join(name);
        if !path.exists() {
            eprintln!("skipping {name}: not built (run `cargo build -p fedsz-bench --bins`)");
            failures.push(*name);
            continue;
        }
        println!("\n================ {name} ================\n");
        let status = Command::new(&path).args(&extra).status().expect("spawn bench binary");
        if !status.success() {
            failures.push(*name);
        }
    }
    if failures.is_empty() {
        println!("\nall {} bench binaries completed", BINARIES.len());
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
