//! Deployment capacity curve: goodput and PRR vs
//! offered load for a seeded city, decoded by plain TnB and by TnB+SIC.
//! This is the network-level headline the paper's trace-level figures
//! imply: collision resolution translates directly into deployment
//! capacity. Emits BENCH JSON rows under `--json-out`.

use tnb_bench::{ExpArgs, TablePrinter};
use tnb_deploy::{run_deploy, DeployConfig, Scene};
use tnb_phy::SpreadingFactor;

/// One scheme at one load point.
struct Row {
    load_pps: f64,
    scheme: &'static str,
    offered: usize,
    delivered: usize,
    goodput_pps: f64,
    prr: f64,
    duplicates: u64,
}

fn run_point(cfg: &DeployConfig, sic: bool, workers: usize) -> Row {
    let mut cfg = cfg.clone();
    cfg.sic = sic;
    let scene = Scene::new(cfg);
    let report = run_deploy(&scene, workers);
    let n = &report.network;
    Row {
        load_pps: report.load_pps,
        scheme: if sic { "tnb+sic" } else { "tnb" },
        offered: report.offered,
        delivered: n.deliveries.len(),
        goodput_pps: n.goodput_pps(report.duration_s),
        prr: n.prr(report.offered),
        duplicates: n.duplicates,
    }
}

fn main() {
    let args = ExpArgs::parse();
    // The city shrinks in quick mode but keeps two load points: the
    // CI gate compares the schemes at *every* point, so a one-point
    // "curve" would weaken it.
    let (loads, duration_s, nodes) = if args.quick {
        (vec![10.0, 30.0], 0.4, 5_000u32)
    } else {
        (args.loads.clone(), args.duration_s.min(2.0), 20_000)
    };
    let base = DeployConfig {
        nodes,
        gateways: 2,
        sfs: vec![SpreadingFactor::SF7, SpreadingFactor::SF8],
        side_m: 700.0,
        duration_s,
        seed: args.seed,
        shard_samples: 500_000,
        ..DeployConfig::default()
    };
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    println!(
        "Capacity curve: {} nodes, {} gateways, SF{{7,8}}, {duration_s} s per point, \
         seed {} ({} load points, tnb vs tnb+sic)\n",
        base.nodes,
        base.gateways,
        base.seed,
        loads.len(),
    );
    let mut t = TablePrinter::new([
        "load (pps)",
        "scheme",
        "offered",
        "delivered",
        "goodput (pps)",
        "PRR",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &load in &loads {
        for sic in [false, true] {
            let mut cfg = base.clone();
            cfg.load_pps = load;
            let row = run_point(&cfg, sic, workers);
            t.row([
                format!("{load}"),
                row.scheme.to_string(),
                format!("{}", row.offered),
                format!("{}", row.delivered),
                format!("{:.2}", row.goodput_pps),
                format!("{:.3}", row.prr),
            ]);
            rows.push(row);
        }
    }
    t.print();
    println!(
        "\nSIC rescues only add deliveries, so tnb+sic goodput must be >= tnb at every load point"
    );

    if let Some(path) = &args.json_out {
        let json_rows: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"load_pps\":{},\"scheme\":\"{}\",\"offered\":{},\
                     \"delivered\":{},\"goodput_pps\":{:.4},\"prr\":{:.4},\
                     \"duplicates\":{}}}",
                    r.load_pps,
                    r.scheme,
                    r.offered,
                    r.delivered,
                    r.goodput_pps,
                    r.prr,
                    r.duplicates,
                )
            })
            .collect();
        let body = format!(
            "{{\"benchmark\":\"capacity_curve\",\"nodes\":{},\"gateways\":{},\
             \"duration_s\":{duration_s},\"seed\":{},\"rows\":[{}]}}",
            base.nodes,
            base.gateways,
            base.seed,
            json_rows.join(","),
        );
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path} ({} rows)", json_rows.len()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
