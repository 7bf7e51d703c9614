//! Section 7: distributed sketching — per-process compute and communication volumes.
//!
//! A cost model, not an execution: each row comes from
//! [`SketchMethod::rank_local_cost`], whose kernel costs are pinned against the
//! recorded ones in `analytic::tests`.  Exits non-zero if the Section 7 headline
//! fails at any process count: the multisketch must communicate exactly as much as
//! the Gaussian, and strictly less than the CountSketch.

use sketch_bench::analytic::SketchMethod;
use sketch_bench::report::{sci, Table};

fn main() {
    let d = 1 << 14;
    let n = 32;
    let methods = [
        ("Gaussian", SketchMethod::Gaussian),
        ("CountSketch", SketchMethod::CountAlg2),
        ("MultiSketch", SketchMethod::MultiSketch),
    ];

    let mut table = Table::new(
        "Section 7 — distributed sketching (d = 2^14, n = 32)",
        &["p", "method", "comm words", "per-process flops (max)"],
    );
    let mut ordered = true;
    for p in [2usize, 4, 8, 16] {
        let words = methods.map(|(label, method)| {
            let (comm, max_cost) = method.rank_local_cost(d, n, p);
            table.push_row(vec![
                p.to_string(),
                label.to_string(),
                sci(comm.total_words() as f64),
                sci(max_cost.flops as f64),
            ]);
            comm.total_words()
        });
        let [gauss, count, multi] = words;
        if multi != gauss || count <= multi {
            eprintln!(
                "Section 7 ordering violated at p = {p}: multisketch {multi} words, \
                 Gaussian {gauss}, CountSketch {count}"
            );
            ordered = false;
        }
    }
    table.print();
    println!(
        "The multisketch communicates as little as the Gaussian (n times less than the \
         CountSketch); its per-process compute is the CountSketch's row slice plus one \
         p-independent 2n x 2n^2 GEMM (Section 7, modelled)."
    );
    if !ordered {
        std::process::exit(1);
    }
}
