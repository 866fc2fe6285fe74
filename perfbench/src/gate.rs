//! Correctness gates shared by every workload and the outcome digest that
//! lets two commits compare simulated behaviour exactly.

use std::fmt::Write as _;
use std::path::PathBuf;

use fixref_bench::{run_table1, run_table2, table1_text, table2_text, LMS_SAMPLES};
use fixref_core::FlowOutcome;
use fixref_sim::Design;

use crate::report::Report;

fn golden(name: &str) -> Result<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../tests/golden")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Reproduces the committed Table 1 and Table 2 goldens. The goldens are
/// the paper's tables as this repository reproduces them; they are the
/// only reference the simulator's accuracy is stated against.
pub fn paper_tables(report: &mut Report) -> Result<(), String> {
    let expected1 = golden("table1.txt")?;
    let expected2 = golden("table2.txt")?;
    let table1 = run_table1(LMS_SAMPLES)
        .map(|(history, interventions)| table1_text(&history, &interventions))
        .map_err(|e| e.to_string());
    let table2 = run_table2(LMS_SAMPLES)
        .map(|history| table2_text(&history))
        .map_err(|e| e.to_string());
    for (what, got, want) in [
        ("table1 matches tests/golden/table1.txt", table1, expected1),
        ("table2 matches tests/golden/table2.txt", table2, expected2),
    ] {
        match got {
            Ok(text) => report.check(what, text == want, first_difference(&text, &want)),
            Err(e) => report.check(what, false, e),
        }
    }
    report.line(
        "accuracy: the simulator is unvalidated against hardware; its only \
         reference is the paper's Tables 1 and 2 (reproduced exactly above)",
    );
    Ok(())
}

fn first_difference(got: &str, want: &str) -> String {
    got.lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map_or_else(
            || "line counts differ".to_string(),
            |(i, (a, b))| format!("line {}: got {a:?}, want {b:?}", i + 1),
        )
}

/// Canonical text of a flow outcome: refined types, interventions and
/// iteration counts, plus the cycles simulated.
pub fn outcome_text(design: &Design, outcome: &FlowOutcome, cycles: u64) -> String {
    let mut types: Vec<String> = outcome
        .types
        .iter()
        .map(|(id, t)| format!("{}:{t}", design.name_of(*id)))
        .collect();
    types.sort();
    let mut out = String::new();
    let _ = writeln!(out, "types {}", types.join(" "));
    for iv in &outcome.interventions {
        let _ = writeln!(out, "intervention {iv}");
    }
    let _ = writeln!(
        out,
        "iterations msb={} lsb={}",
        outcome.msb_iterations, outcome.lsb_iterations
    );
    let _ = writeln!(out, "cycles {cycles}");
    out
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}
