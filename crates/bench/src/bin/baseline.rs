//! The list-semantics baseline comparison (Sec. 2).
//!
//! The paper reports that commutativity of selection takes 65 lines of
//! Coq under list semantics \[35\] and 10 lines under HoTTSQL. We make the
//! comparison quantitative on two axes: (a) proof effort in our system
//! (trace steps for the same rule), and (b) the runtime cost that the
//! list representation forces on every equivalence check (sorting for
//! permutation-equality) versus the normalized multiset representation.
//!
//! Usage: `cargo run -p bench --bin baseline --release`

fn main() {
    println!("=== Baseline: list semantics vs HoTTSQL semantics ===\n");
    let steps = bench::baseline_proof_steps();
    println!("commutativity of selection (conj-slct-split):");
    println!("  paper, list semantics [35]: 65 proof lines");
    println!("  paper, HoTTSQL:             10 proof lines");
    println!("  this system:                {steps} trace steps (automatic)\n");
    println!(
        "{:<12} {:>18} {:>22} {:>8}",
        "rows", "list check (µs)", "K-relation check (µs)", "ratio"
    );
    for n in [100u64, 1_000, 10_000, 100_000] {
        let (list, rel) = bench::baseline_equivalence_times(n);
        let (lus, rus) = (list.as_secs_f64() * 1e6, rel.as_secs_f64() * 1e6);
        println!(
            "{:<12} {:>18.1} {:>22.1} {:>8.1}",
            n,
            lus,
            rus,
            if rus > 0.0 { lus / rus } else { f64::INFINITY }
        );
    }
    println!("\n(list semantics must sort on every comparison; the K-relation");
    println!("representation is kept normalized, so equality is a linear scan)");
}
