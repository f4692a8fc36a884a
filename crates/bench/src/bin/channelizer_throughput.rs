//! Wideband channelizer throughput: synthesizes an 8-channel wideband
//! scene (one packet per occupied LoRa uplink channel), streams it
//! through the gateway daemon with the wire protocol's WIDEBAND flag,
//! and reports end-to-end packets/sec and samples/sec — while checking
//! the uplink transcript is byte-identical to a direct in-process
//! `WidebandReceiver` decode. The JSON row (`--json-out`) feeds the
//! BENCH_throughput.json artifact and the CI packets/sec regression
//! gate against `results/channelizer_baseline.json`.

use tnb_bench::{ExpArgs, TablePrinter};
use tnb_core::metrics::json;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::gateway::{run, HarnessConfig, Scene};

fn main() {
    let args = ExpArgs::parse();
    // Full mode spreads packets across more of the band (channel edges
    // stay covered by the dsp chunk-invariance and wideband unit tests).
    let occupied = if args.quick {
        vec![1, 4, 6]
    } else {
        vec![1, 2, 4, 5, 6]
    };
    let cfg = HarnessConfig {
        scene: Scene::Wideband {
            occupied: occupied.clone(),
        },
        chunk: 40_000,
        seed: args.seed.wrapping_add(39),
        ..HarnessConfig::new(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
    };
    let bench = match run(&cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("wideband loopback failed: {e}");
            std::process::exit(1);
        }
    };
    if !bench.byte_identical() {
        eprintln!("wideband loopback diverged from the in-process reference decode");
        std::process::exit(1);
    }

    println!(
        "Wideband channelizer loopback: {} channels, {} occupied, seed {}\n",
        bench.per_channel.len(),
        occupied.len(),
        cfg.seed
    );
    let mut t = TablePrinter::new(["channel", "packets"]);
    for (c, n) in bench.per_channel.iter().enumerate() {
        t.row([format!("{c}"), format!("{n}")]);
    }
    t.print();
    let uplinked = bench.stats.packets_uplinked;
    println!(
        "\n{} packets uplinked over {:.1} Msamples: {:.1} packets/s, {:.2} Msamples/s, byte-identical",
        uplinked,
        bench.samples as f64 / 1e6,
        bench.per_sec(uplinked),
        bench.per_sec(bench.samples) / 1e6,
    );

    if let Some(path) = &args.json_out {
        let body = json::object()
            .str("benchmark", "channelizer_throughput")
            .val("seed", cfg.seed)
            .val("occupied", occupied.len())
            .raw("wideband", &bench.to_json(&cfg))
            .finish();
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
