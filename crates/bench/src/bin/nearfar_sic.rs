//! Near-far rescue sweep: a weak packet whose preamble is buried under a
//! strong collider ΔSNR louder. Plain TnB cannot detect the weak
//! preamble at large ΔSNR; the SIC rescue pass reconstructs and
//! subtracts the strong packet and re-decodes the residual. Reports the
//! weak-packet PRR for TnB vs TnB+SIC per power delta, plus the rescue
//! tally, as a BENCH JSON row set under `--json-out`.

use tnb_bench::{ExpArgs, TablePrinter};
use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::{PipelineMetrics, SicConfig, TnbConfig, TnbReceiver};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

const WEAK_SNR_DB: f32 = 3.0;
const DELTAS_DB: [f32; 4] = [9.0, 12.0, 15.0, 18.0];

fn sic_on() -> TnbConfig {
    TnbConfig {
        sic: SicConfig {
            enabled: true,
            ..SicConfig::default()
        },
        ..TnbConfig::default()
    }
}

/// One seeded scene: the weak preamble starts 3⅓ symbols into the strong
/// packet, with distinct CFOs and fractional delays per node.
fn near_far_trace(p: LoRaParams, seed: u64, delta_db: f32) -> (Vec<tnb_dsp::Complex32>, Vec<u8>) {
    let l = p.samples_per_symbol();
    let weak_payload = vec![0x57u8; 16];
    let mut b = TraceBuilder::new(p, seed);
    b.add_packet(
        &[0xA5u8; 16],
        PacketConfig {
            start_sample: 4_000,
            snr_db: WEAK_SNR_DB + delta_db,
            cfo_hz: -1_800.0,
            frac_delay: 0.41,
            node_id: 1,
            ..Default::default()
        },
    );
    b.add_packet(
        &weak_payload,
        PacketConfig {
            start_sample: 4_000 + 3 * l + l / 3,
            snr_db: WEAK_SNR_DB,
            cfo_hz: 2_400.0,
            frac_delay: 0.73,
            node_id: 2,
            ..Default::default()
        },
    );
    (b.build().samples().to_vec(), weak_payload)
}

fn main() {
    let args = ExpArgs::parse();
    let seeds = if args.quick { 2 } else { args.runs.max(5) };
    let p = LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4);
    println!(
        "Near-far rescue sweep: weak packet at {WEAK_SNR_DB} dB SNR under a \
         collider ΔSNR louder ({seeds} seeds per Δ, SF 8, CR 4)\n"
    );
    let mut t = TablePrinter::new(["ΔSNR (dB)", "TnB weak PRR", "TnB+SIC weak PRR", "rescues"]);
    let mut json_rows: Vec<String> = Vec::new();
    for delta in DELTAS_DB {
        let mut weak_plain = 0usize;
        let mut weak_sic = 0usize;
        let mut rescues = 0u64;
        for k in 0..seeds {
            let (trace, weak) = near_far_trace(p, args.seed + 41 + k, delta);
            let (plain, _) =
                TnbReceiver::new(p).decode_observed(&[&trace], &PipelineMetrics::disabled());
            weak_plain += usize::from(plain.iter().any(|d| d.payload == weak));
            let (sic, report) = TnbReceiver::with_config(p, sic_on())
                .decode_observed(&[&trace], &PipelineMetrics::disabled());
            weak_sic += usize::from(sic.iter().any(|d| d.payload == weak));
            rescues += report.second_pass_rescues as u64;
        }
        let prr = |n: usize| n as f64 / seeds as f64;
        t.row([
            format!("{delta}"),
            format!("{:.2}", prr(weak_plain)),
            format!("{:.2}", prr(weak_sic)),
            format!("{rescues}"),
        ]);
        json_rows.push(format!(
            "{{\"delta_db\":{delta},\"seeds\":{seeds},\
             \"weak_prr_tnb\":{:.4},\"weak_prr_tnb_sic\":{:.4},\
             \"second_pass_rescues\":{rescues}}}",
            prr(weak_plain),
            prr(weak_sic),
        ));
    }
    t.print();
    println!("\nTnB+SIC must strictly improve the weak-packet PRR wherever the strong collider masks the weak preamble");

    if let Some(path) = &args.json_out {
        let body = format!(
            "{{\"benchmark\":\"nearfar_sic\",\"weak_snr_db\":{WEAK_SNR_DB},\
             \"rows\":[{}]}}",
            json_rows.join(","),
        );
        match std::fs::write(path, body) {
            Ok(()) => println!("wrote {path} ({} rows)", json_rows.len()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}
