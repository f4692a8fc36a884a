//! Determinism rules (TNB-DET01..03): the receiver must produce
//! byte-identical output on the same trace at every worker count, so the
//! decode-path crates must not read the wall clock, iterate
//! hash-randomized collections, or keep `Cell`-based metrics outside
//! the `tnb-metrics` crate (whose per-worker sinks are merged along the
//! determinism boundary).

use super::{token_cols, Ctx};
use crate::diagnostics::Diagnostic;

/// Wall-clock reads; also the reads-clock seed table of the
/// interprocedural effect analysis (`crate::effects`).
pub const CLOCK_TOKENS: [&str; 3] = ["Instant::now", "SystemTime", "std::time::Instant"];
/// Hash-randomized collections; also the nondet-order effect seeds.
pub const HASH_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
const CELL_TOKENS: [&str; 2] = ["Cell<", "Cell::new"];

pub fn check(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    for (i, line) in ctx.src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in CLOCK_TOKENS {
            for col in token_cols(&line.code, tok) {
                ctx.emit(
                    diags,
                    i,
                    col,
                    "TNB-DET01",
                    format!(
                        "`{tok}` reads the wall clock in decode-path crate {}; route timing \
                         through tnb-metrics (disabled sinks never touch the clock)",
                        ctx.scope.crate_name
                    ),
                );
            }
        }
        for tok in HASH_TOKENS {
            for col in token_cols(&line.code, tok) {
                ctx.emit(
                    diags,
                    i,
                    col,
                    "TNB-DET02",
                    format!(
                        "`{tok}` has randomized iteration order; use BTreeMap/BTreeSet or an \
                         index-keyed Vec in decode-path crate {}",
                        ctx.scope.crate_name
                    ),
                );
            }
        }
        for tok in CELL_TOKENS {
            for col in token_cols(&line.code, tok) {
                ctx.emit(
                    diags,
                    i,
                    col,
                    "TNB-DET03",
                    format!(
                        "`{tok}` in decode-path crate {}: Cell-based metrics belong in \
                         tnb-metrics, whose sinks are absorbed deterministically after join",
                        ctx.scope.crate_name
                    ),
                );
            }
        }
    }
}
