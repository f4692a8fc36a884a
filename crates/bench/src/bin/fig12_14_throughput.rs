//! Figs. 12–14: decoded throughput vs offered load for the three
//! deployments, SF ∈ {8, 10} × CR ∈ {1..4}, schemes TnB / CIC /
//! AlignTrack* / LoRaPHY — the paper's headline comparison.
//!
//! Also prints the paper's summary statistic: the median throughput gain
//! of TnB over CIC at the highest load, per SF.

use tnb_baselines::SchemeKind;
use tnb_bench::{ExpArgs, TablePrinter};
use tnb_core::metrics::json;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::{build_experiment, run_scheme, run_scheme_observed, Deployment, ExperimentConfig};

fn main() {
    let args = ExpArgs::parse();
    // With --json-out, rows (throughput per cell, plus TnB stage timings
    // from the observability layer) are also written as BENCH JSON.
    let mut json_rows: Vec<String> = Vec::new();
    let schemes = [
        SchemeKind::Tnb,
        SchemeKind::TnbSic,
        SchemeKind::Cic,
        SchemeKind::AlignTrack,
        SchemeKind::LoRaPhy,
    ];
    let sfs = if args.quick {
        vec![SpreadingFactor::SF8]
    } else {
        vec![SpreadingFactor::SF8, SpreadingFactor::SF10]
    };
    let crs = if args.quick {
        vec![CodingRate::CR4]
    } else {
        CodingRate::ALL.to_vec()
    };
    let deployments = if args.quick {
        vec![Deployment::Indoor]
    } else {
        Deployment::ALL.to_vec()
    };

    // Collect TnB/CIC ratios at the highest load for the summary.
    let mut gains: std::collections::HashMap<usize, Vec<f64>> = Default::default();
    let top_load = args.loads.iter().copied().fold(0.0f64, f64::max);

    for dep in &deployments {
        for &sf in &sfs {
            for &cr in &crs {
                let params = LoRaParams::new(sf, cr);
                println!(
                    "\n== {} | SF {} | CR {} | throughput (pkt/s) vs offered load ==",
                    dep.name(),
                    sf.value(),
                    cr.value()
                );
                let mut t = TablePrinter::new({
                    let mut h = vec!["load".to_string()];
                    h.extend(schemes.iter().map(|s| s.name().to_string()));
                    h
                });
                for &load in &args.loads {
                    let mut row = vec![format!("{load}")];
                    let mut tp = std::collections::HashMap::new();
                    let mut tnb_metrics = None;
                    let mut sic_rescues = 0u64;
                    for run in 0..args.runs {
                        let cfg = ExperimentConfig {
                            load_pps: load,
                            duration_s: args.duration_s,
                            seed: args.seed + run * 1000 + load as u64,
                            ..ExperimentConfig::new(params, *dep)
                        };
                        let built = build_experiment(&cfg);
                        for kind in schemes {
                            let scheme = kind.build(params);
                            let observed = matches!(kind, SchemeKind::Tnb | SchemeKind::TnbSic);
                            let r = if observed && args.json_out.is_some() {
                                let r = run_scheme_observed(scheme.as_ref(), &built, 1);
                                if kind == SchemeKind::Tnb {
                                    tnb_metrics = r.stage_metrics;
                                } else if let Some(rep) = &r.report {
                                    sic_rescues += rep.second_pass_rescues as u64;
                                }
                                r
                            } else {
                                run_scheme(scheme.as_ref(), &built)
                            };
                            *tp.entry(kind.name()).or_insert(0.0) +=
                                r.throughput_pps / args.runs as f64;
                        }
                    }
                    for kind in schemes {
                        row.push(format!("{:.2}", tp[kind.name()]));
                    }
                    if args.json_out.is_some() {
                        for kind in schemes {
                            let mut obj = json::object()
                                .str("deployment", dep.name())
                                .val("sf", sf.value())
                                .val("cr", cr.value())
                                .val("load", load)
                                .str("scheme", kind.name())
                                .fixed("throughput_pps", tp[kind.name()], 4);
                            if kind == SchemeKind::Tnb {
                                if let Some(snap) = &tnb_metrics {
                                    obj = obj.raw("metrics", &snap.to_json());
                                }
                            }
                            if kind == SchemeKind::TnbSic {
                                obj = obj.val("second_pass_rescues", sic_rescues);
                            }
                            json_rows.push(obj.finish());
                        }
                    }
                    if (load - top_load).abs() < 1e-9 {
                        let cic = tp["CIC"].max(1e-9);
                        gains.entry(sf.value()).or_default().push(tp["TnB"] / cic);
                    }
                    t.row(row);
                }
                t.print();
            }
        }
    }

    if let Some(path) = &args.json_out {
        let body = json::object()
            .str("benchmark", "fig12_14_throughput")
            .val("duration_s", args.duration_s)
            .val("runs", args.runs)
            .raw("rows", &json::array(&json_rows))
            .finish();
        match std::fs::write(path, body) {
            Ok(()) => println!("\nwrote {path} ({} rows)", json_rows.len()),
            Err(e) => eprintln!("\nfailed to write {path}: {e}"),
        }
    }

    println!("\n== summary: TnB/CIC throughput ratio at the highest load ==");
    for (sf, mut g) in gains {
        g.sort_by(f64::total_cmp);
        let median = g[g.len() / 2];
        println!(
            "SF {sf}: median {median:.2}x over {} (deployment x CR) cells (paper: 1.36x for SF 8, 2.46x for SF 10)",
            g.len()
        );
    }
}
