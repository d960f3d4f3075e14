//! The exact snapshot gate end to end on Table I: two runs rendered
//! through the shared `results/table1.csv` writer give zero cell diffs,
//! and one perturbed duration gives exactly one diff naming its row and
//! column.  L = 8 is the smallest lattice the paper's fixed local sizes
//! (256 and 768 work-items) launch on.

use milc_bench::snapshot::{diff, Table};
use milc_bench::{table1_csv, table1_outcomes, table1_profiles, Experiment};
use milc_complex::DoubleComplex;
use milc_dslash::DslashProblem;

#[test]
fn table1_gate_is_exact_and_names_the_perturbed_cell() {
    let exp = Experiment::new(8, 2024);
    let render = || {
        let mut problem = DslashProblem::<DoubleComplex>::random(exp.l, exp.seed);
        let outcomes = table1_outcomes(&exp, &mut problem);
        Table::parse(&table1_csv(&exp, &table1_profiles(&exp, &outcomes)))
            .expect("the writer renders a header and twelve rows")
    };
    let (want, got) = (render(), render());
    assert_eq!(want.rows().len(), 12);
    assert_eq!(diff("table1.csv", &want, &got, 1, &[]), vec![]);

    let row = (0..got.rows().len())
        .find(|&i| got.key(i, 1) == "3LP-1 k")
        .expect("Table I has a 3LP-1 k-major column");
    let mut perturbed = got.clone();
    perturbed
        .cell_mut(row, "sim_duration_us")
        .expect("table1.csv has a sim_duration_us column")
        .push('1');
    let d = diff("table1.csv", &want, &perturbed, 1, &[]);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(
        (d[0].key.as_str(), d[0].column.as_str()),
        ("3LP-1 k", "sim_duration_us")
    );
    assert_eq!(d[0].got, format!("{}1", d[0].want));
}
