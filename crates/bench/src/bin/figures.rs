//! The `figures` harness: regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p xmap-bench --bin figures -- all            # every experiment (quick scale)
//! cargo run --release -p xmap-bench --bin figures -- fig8           # one experiment
//! cargo run --release -p xmap-bench --bin figures -- fig8 full      # larger workload
//! ```
//!
//! Experiment ids: `fig1b`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `table2`, `table3`, `replay` (simulated makespans of the recorded ledgers — not a
//! paper figure), `all`.

use std::time::Instant;
use xmap_bench::experiments::{self, PrivacySurface};
use xmap_bench::Scale;
use xmap_eval::{render_series_table, render_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let scale = Scale::from_arg(args.get(1).map(String::as_str)).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });

    let known = [
        "fig1b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "table3",
        "replay",
    ];
    let selected: Vec<&str> = if experiment == "all" {
        known.to_vec()
    } else if known.contains(&experiment) {
        vec![experiment]
    } else {
        eprintln!("unknown experiment `{experiment}`; expected one of {known:?} or `all`");
        std::process::exit(2);
    };

    println!("# X-Map reproduction harness (scale: {scale:?})");
    println!();
    for id in selected {
        let start = Instant::now();
        run(id, scale);
        println!("[{id} completed in {:.1?}]", start.elapsed());
        println!();
    }
}

fn run(id: &str, scale: Scale) {
    match id {
        "fig1b" => {
            println!("## Figure 1(b) — heterogeneous similarities, standard vs meta-path-based");
            let r = experiments::fig1b(scale);
            let rows = vec![
                vec![
                    "Standard (direct edges)".to_string(),
                    r.standard.to_string(),
                ],
                vec![
                    "Meta-path-based (X-Sim)".to_string(),
                    r.metapath_based.to_string(),
                ],
            ];
            print!(
                "{}",
                render_table(&["method", "# heterogeneous similarities"], &rows)
            );
        }
        "fig5" => {
            println!("## Figure 5 — temporal relevance: MAE vs α (item-based variants)");
            let series = experiments::fig5(scale);
            print!("{}", render_series_table("alpha", &series, 4));
            for s in &series {
                if let Some(best) = s.best() {
                    println!(
                        "optimal alpha for {}: {:.2} (MAE {:.4})",
                        s.label, best.x, best.y
                    );
                }
            }
        }
        "fig6" => {
            println!("## Figure 6 — privacy-quality trade-off, X-Map-ib: MAE over (ε, ε′)");
            print_privacy_surfaces(&experiments::fig6(scale));
        }
        "fig7" => {
            println!("## Figure 7 — privacy-quality trade-off, X-Map-ub: MAE over (ε, ε′)");
            print_privacy_surfaces(&experiments::fig7(scale));
        }
        "fig8" => {
            println!("## Figure 8 — MAE vs k against the competitors");
            for panel in experiments::fig8(scale) {
                println!("### {}", panel.direction);
                print!("{}", render_series_table("k", &panel.series, 4));
            }
        }
        "fig9" => {
            println!("## Figure 9 — MAE vs overlap (fraction of straddlers in training)");
            for panel in experiments::fig9(scale) {
                println!("### {}", panel.direction);
                print!("{}", render_series_table("overlap", &panel.series, 4));
            }
        }
        "fig10" => {
            println!("## Figure 10 — MAE vs auxiliary target-profile size (sparsity)");
            for panel in experiments::fig10(scale) {
                println!("### {}", panel.direction);
                print!("{}", render_series_table("aux profile", &panel.series, 4));
            }
        }
        "fig11" => {
            println!("## Figure 11 — scalability: simulated speedup vs number of machines");
            let series = experiments::fig11(scale);
            print!("{}", render_series_table("machines", &series, 3));
        }
        "table2" => {
            println!("## Table 2 — genre-based sub-domains of the MovieLens-like trace");
            let t = experiments::table2(scale);
            let rows: Vec<Vec<String>> = t
                .rows
                .iter()
                .map(|(g, c, d)| vec![g.clone(), c.to_string(), d.to_string()])
                .collect();
            print!(
                "{}",
                render_table(&["genre", "movie count", "sub-domain"], &rows)
            );
            println!(
                "sub-domain sizes: D1 = {} items, D2 = {} items",
                t.domain_sizes.0, t.domain_sizes.1
            );
        }
        "table3" => {
            println!("## Table 3 — homogeneous setting: MAE of NX-Map / X-Map / ALS");
            let rows: Vec<Vec<String>> = experiments::table3(scale)
                .into_iter()
                .map(|(name, mae)| vec![name, format!("{mae:.4}")])
                .collect();
            print!("{}", render_table(&["system", "MAE"], &rows));
        }
        "replay" => {
            println!("## Ledger replay — recorded task bags under LPT placement");
            let table = experiments::replay(scale);
            let rows: Vec<Vec<String>> = table
                .bags
                .iter()
                .map(|b| {
                    vec![
                        b.bag.to_string(),
                        b.n_tasks.to_string(),
                        format!("{:.0}", b.total_work),
                        format!("{:.2}", b.speedup[0]),
                        format!("{:.2}", b.speedup[1]),
                    ]
                })
                .collect();
            let header = ["bag", "tasks", "total work", "speedup @4", "speedup @8"];
            print!("{}", render_table(&header, &rows));
            println!("### routed ledgers under pinned placement");
            let rows: Vec<Vec<String>> = table
                .routed
                .iter()
                .map(|r| {
                    vec![
                        r.ledger.to_string(),
                        r.n_nodes.to_string(),
                        r.hot_replicated.to_string(),
                        r.n_tasks.to_string(),
                        format!("{:.2}", r.makespan),
                        format!("{:.2}", r.imbalance),
                    ]
                })
                .collect();
            let header = [
                "ledger",
                "nodes",
                "hot replicated",
                "tasks",
                "makespan",
                "imbalance",
            ];
            print!("{}", render_table(&header, &rows));
        }
        other => unreachable!("unknown experiment {other}"),
    }
}

fn print_privacy_surfaces(surfaces: &[PrivacySurface]) {
    for surface in surfaces {
        println!("### {}", surface.direction);
        let rows: Vec<Vec<String>> = surface
            .rows
            .iter()
            .map(|(e, ep, mae)| vec![format!("{e:.1}"), format!("{ep:.1}"), format!("{mae:.4}")])
            .collect();
        print!("{}", render_table(&["epsilon", "epsilon'", "MAE"], &rows));
    }
}
